type backend = Auto | Plain

type t = {
  lambda : float;
  beta : float;
  theta : float;
  gamma : float;
  eps : float;
  max_iter : int;
  backend : backend;
  direct_tol : float;
  verify_bound : bool;
  warm_start : bool;
  num_domains : int;
  decompose : bool;
  metrics : bool;
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
    gamma = 2.0;
    eps = 3e-3;
    max_iter = 10_000;
    backend = Auto;
    direct_tol = 1e-9;
    verify_bound = false;
    warm_start = true;
    num_domains = Mclh_par.Pool.default_num_domains ();
    decompose = true;
    metrics = Mclh_obs.Obs.enabled_from_env ();
    progress = false }

let validate t =
  if t.lambda <= 0.0 then Error "lambda must be positive"
  else if not (t.beta > 0.0 && t.beta < 2.0) then Error "beta must lie in (0, 2)"
  else if t.theta <= 0.0 then Error "theta must be positive"
  else if t.gamma <= 0.0 then Error "gamma must be positive"
  else if t.eps <= 0.0 then Error "eps must be positive"
  else if t.max_iter <= 0 then Error "max_iter must be positive"
  else if t.direct_tol <= 0.0 then Error "direct_tol must be positive"
  else if t.num_domains < 1 then Error "num_domains must be >= 1"
  else Ok t
