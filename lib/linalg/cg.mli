(** Conjugate gradient for symmetric positive definite operators.

    Matrix-free: the operator is a function, so Laplacian-like systems
    from the quadratic global placer never materialize. Optional Jacobi
    preconditioning via the supplied diagonal.

    The caller owns the vectors: a {!workspace} holds the iterate and the
    four work vectors, and the operator writes its product into a vector
    it is handed. A solve therefore allocates nothing per iteration, and
    several solves of one dimension can reuse one workspace, or run side
    by side on separate ones. *)

type workspace = private {
  x : Vec.t;  (** the iterate: [x0] (or 0) on entry, the solution on exit *)
  r : Vec.t;  (** residual [b - A x] *)
  z : Vec.t;  (** preconditioned residual *)
  p : Vec.t;  (** search direction *)
  ap : Vec.t;  (** [A p] *)
}

val workspace : int -> workspace
(** [workspace dim]: five zero vectors of dimension [dim].
    @raise Invalid_argument if [dim < 0]. *)

type outcome = {
  iterations : int;
  converged : bool;
  residual_norm : float;  (** final ||b - A x||_2 *)
}

val solve :
  ?max_iter:int ->
  ?tol:float ->
  ?x0:Vec.t ->
  ?jacobi:Vec.t ->
  workspace ->
  (Vec.t -> Vec.t -> unit) ->
  b:Vec.t ->
  outcome
(** [solve ws apply ~b] solves [A x = b] for SPD [A], where [apply v out]
    writes [A v] into [out] (it must read only [v] and write only
    [out]). The solution is left in [ws.x]. Defaults:
    [max_iter = 10 * dim + 100], [tol = 1e-8] (relative to [||b||]),
    [x0 = 0]; [x0] is copied into [ws.x] ([x0] may be [ws.x] itself).
    [jacobi], when given, must be the (positive) diagonal of A. The
    arithmetic is that of the textbook allocating loop, operation for
    operation, so the iterates do not depend on the workspace.
    @raise Invalid_argument on dimension mismatches or non-positive
      [jacobi] entries. *)
