type t = {
  lambda : float;
  beta : float;
  theta : float;
  eps : float;
  max_iter : int;
  num_domains : int;
  progress : bool;
      (* stage/iteration heartbeat lines on stderr for long full-scale
         runs; never part of report output *)
}

(* eps is measured in site widths; final positions snap to integer sites,
   so 1e-3 sites of iterate change is far below the rounding threshold
   (empirically the snapped placement is already stable at 1e-2). The
   optimality experiments (Section 5.3) override eps downward. *)
let default =
  { lambda = 1000.0;
    beta = 0.5;
    theta = 0.5;
    eps = 3e-3;
    max_iter = 10_000;
    num_domains = Mclh_par.Pool.default_num_domains ();
    progress = false }

let validate t =
  let positive x = x > 0.0 && Float.is_finite x in
  if not (positive t.lambda) then Error "lambda must be positive and finite"
  else if not (t.beta > 0.0 && t.beta < 2.0) then Error "beta must lie in (0, 2)"
  else if not (positive t.theta) then Error "theta must be positive and finite"
  else if not (positive t.eps) then Error "eps must be positive and finite"
  else if t.max_iter <= 0 then Error "max_iter must be positive"
  else if t.num_domains < 1 || t.num_domains > Mclh_par.Pool.max_domains then
    Error
      (Printf.sprintf "num_domains must lie in 1..%d, got %d"
         Mclh_par.Pool.max_domains t.num_domains)
  else Ok t
