(** Dense vectors of floats.

    A thin layer over [float array] providing the operations the LCP/MMSIM
    solvers need: BLAS-1 style arithmetic, norms, and elementwise transforms.
    All binary operations require equal lengths and raise
    [Invalid_argument] otherwise. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val zeros : int -> t
(** [zeros n] is the zero vector of dimension [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val copy : t -> t

val dim : t -> int

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src] into [dst]. *)

val fill : t -> float -> unit

val add : t -> t -> t
(** [add x y] is the elementwise sum. *)

val sub : t -> t -> t
(** [sub x y] is the elementwise difference [x - y]. *)

val scale : float -> t -> t
(** [scale a x] is [a * x]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a * x + y] in place. *)

val dot : t -> t -> float
(** Euclidean inner product. *)

val abs_into : t -> t -> unit
(** [abs_into x dst] writes [|x|] elementwise into [dst]. *)

val pos_part : t -> t
(** [pos_part x] is elementwise [max x 0]. *)

val neg_part : t -> t
(** [neg_part x] is elementwise [max (-x) 0], so [x = pos_part x - neg_part x]. *)

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
(** Max-norm; 0 for the empty vector. *)

val dist_inf : t -> t -> float
(** [dist_inf x y] is [norm_inf (sub x y)] without allocating. *)

val min_elt : t -> float
(** Smallest element. Raises [Invalid_argument] on the empty vector. *)

val max_elt : t -> float
(** Largest element. Raises [Invalid_argument] on the empty vector. *)

val map : (float -> float) -> t -> t

val mapi : (int -> float -> float) -> t -> t

val fold_left : ('a -> float -> 'a) -> 'a -> t -> 'a

val sum : t -> float

val of_list : float list -> t

val equal : ?eps:float -> t -> t -> bool
(** [equal ?eps x y] holds when dimensions match and every component differs
    by at most [eps] (default [1e-12]). *)

val pp : Format.formatter -> t -> unit
