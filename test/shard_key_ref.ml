(* Test-only reference for [Decompose.shard_key]: the closure version it
   replaced, verbatim. [mix] closes over the two hash refs, so they are
   boxed and every mixed word allocates; the straight-line key must give
   the same 128 bits without allocating per word. *)

open Mclh_core

let fnv_prime = 0x100000001b3L

let shard_key (model : Model.t) (shard : Decompose.shard) =
  let h1 = ref 0xcbf29ce484222325L and h2 = ref 0x9e3779b97f4a7c15L in
  let mix v =
    h1 := Int64.mul (Int64.logxor !h1 v) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 0x2545f4914f6cdd1dL) v
  in
  let mix_int i = mix (Int64.of_int i) in
  let mix_float f = mix (Int64.bits_of_float f) in
  let sn = Array.length shard.Decompose.vars in
  let sm = Array.length shard.Decompose.cons in
  mix_int sn;
  mix_int sm;
  mix_int (Array.length shard.Decompose.groups);
  Array.iter
    (fun g ->
      mix_int (Array.length g);
      Array.iter mix_int g)
    shard.Decompose.groups;
  mix_int (Array.length shard.Decompose.chains);
  Array.iter
    (fun ch ->
      mix_int (Array.length ch);
      Array.iter mix_int ch)
    shard.Decompose.chains;
  Array.iter (fun v -> mix_float model.Model.p.(v)) shard.Decompose.vars;
  Array.iter (fun c -> mix_float model.Model.b_rhs.(c)) shard.Decompose.cons;
  (!h1, !h2, sn, sm)
