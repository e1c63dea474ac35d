open Mclh_circuit

type t = {
  stage : string;
  cells : int list;
  partial : Placement.t;
  detail : string;
}

let make ~stage ~cells ~partial ~detail =
  { stage; cells = List.sort_uniq compare cells; partial; detail }
