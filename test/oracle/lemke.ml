open Mclh_linalg
open Mclh_lcp

type outcome = Solution of Vec.t | Ray_termination | Iteration_limit

(* Column identifiers of the augmented system  I w - A z - d z0 = q. *)
type var = W of int | Z of int | Z0

let solve ?max_iter (p : Lcp.problem) =
  let n = Lcp.dim p in
  let max_iter = match max_iter with Some v -> v | None -> (50 * n) + 200 in
  if n = 0 then Solution [||]
  else begin
    (* tableau rows: current basis representation.
       columns: 0..n-1 -> w, n..2n-1 -> z, 2n -> z0, 2n+1 -> rhs *)
    let cols = (2 * n) + 2 in
    let rhs_col = cols - 1 and z0_col = cols - 2 in
    let t = Array.make_matrix n cols 0.0 in
    for i = 0 to n - 1 do
      t.(i).(i) <- 1.0;
      (* -A in the z block *)
      Csr.iter_row p.Lcp.a i (fun j v -> t.(i).(n + j) <- t.(i).(n + j) -. v);
      t.(i).(z0_col) <- -1.0;
      (* tiny index-dependent perturbation avoids degenerate cycling *)
      t.(i).(rhs_col) <- p.Lcp.q.(i) +. (1e-11 *. float_of_int (i + 1))
    done;
    let basis = Array.init n (fun i -> W i) in
    let col_of = function W i -> i | Z i -> n + i | Z0 -> z0_col in
    let extract_solution () =
      let z = Vec.zeros n in
      Array.iteri
        (fun row v ->
          match v with
          | Z j -> z.(j) <- Float.max 0.0 t.(row).(rhs_col)
          | W _ | Z0 -> ())
        basis;
      Solution z
    in
    (* all rhs nonnegative: the trivial solution *)
    let min_row = ref 0 in
    for i = 1 to n - 1 do
      if t.(i).(rhs_col) < t.(!min_row).(rhs_col) then min_row := i
    done;
    if t.(!min_row).(rhs_col) >= 0.0 then Solution (Vec.zeros n)
    else begin
      let pivot row col =
        let piv = t.(row).(col) in
        for j = 0 to cols - 1 do
          t.(row).(j) <- t.(row).(j) /. piv
        done;
        for i = 0 to n - 1 do
          if i <> row then begin
            let factor = t.(i).(col) in
            if factor <> 0.0 then
              for j = 0 to cols - 1 do
                t.(i).(j) <- t.(i).(j) -. (factor *. t.(row).(j))
              done
          end
        done
      in
      (* ratio test for an entering column; None = unbounded (ray) *)
      let ratio_test col =
        let best = ref (-1) and best_ratio = ref infinity in
        for i = 0 to n - 1 do
          let a = t.(i).(col) in
          if a > 1e-12 then begin
            let r = t.(i).(rhs_col) /. a in
            if r < !best_ratio -. 1e-15 then begin
              best_ratio := r;
              best := i
            end
          end
        done;
        if !best < 0 then None else Some !best
      in
      (* initial pivot: z0 enters, the most negative w leaves *)
      let row = !min_row in
      let leaving = basis.(row) in
      pivot row z0_col;
      basis.(row) <- Z0;
      let complement = function
        | W i -> Z i
        | Z i -> W i
        | Z0 -> Z0
      in
      let rec loop entering k =
        if k > max_iter then Iteration_limit
        else begin
          let col = col_of entering in
          match ratio_test col with
          | None -> Ray_termination
          | Some row ->
            let leaving = basis.(row) in
            pivot row col;
            basis.(row) <- entering;
            if leaving = Z0 then extract_solution ()
            else loop (complement leaving) (k + 1)
        end
      in
      loop (complement leaving) 0
    end
  end
