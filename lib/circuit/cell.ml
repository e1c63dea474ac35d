type t = {
  id : int;
  name : string;
  width : int;
  height : int;
  bottom_rail : Rail.t option;
  region : int option;
}

let make ~id ?name ~width ~height ?bottom_rail ?region () =
  if width < 1 then invalid_arg "Cell.make: width < 1";
  if height < 1 then invalid_arg "Cell.make: height < 1";
  let even = height mod 2 = 0 in
  (match even, bottom_rail with
  | true, None ->
    invalid_arg "Cell.make: even-height cell requires a bottom rail type"
  | false, Some _ ->
    invalid_arg "Cell.make: odd-height cell must not fix a bottom rail"
  | true, Some _ | false, None -> ());
  let name = match name with Some n -> n | None -> Printf.sprintf "c%d" id in
  { id; name; width; height; bottom_rail; region }

let is_multi_row t = t.height > 1
let is_even_height t = t.height mod 2 = 0
let area t = t.width * t.height
