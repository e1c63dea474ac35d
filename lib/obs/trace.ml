type t = {
  data : float array;
  mutable recorded : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { data = Array.make capacity 0.0; recorded = 0 }

let capacity t = Array.length t.data

let record t v =
  let cap = Array.length t.data in
  t.data.(t.recorded mod cap) <- v;
  t.recorded <- t.recorded + 1

let length t = min t.recorded (Array.length t.data)

let recorded t = t.recorded

let to_array t =
  let cap = Array.length t.data in
  if t.recorded <= cap then Array.sub t.data 0 t.recorded
  else begin
    (* the buffer wrapped: the oldest retained sample sits at the write
       cursor *)
    let start = t.recorded mod cap in
    Array.init cap (fun i -> t.data.((start + i) mod cap))
  end

let last t =
  if t.recorded = 0 then None
  else Some t.data.((t.recorded - 1) mod Array.length t.data)
