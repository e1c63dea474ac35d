type t = Vdd | Vss

let opposite = function Vdd -> Vss | Vss -> Vdd

let equal a b =
  match a, b with Vdd, Vdd | Vss, Vss -> true | Vdd, Vss | Vss, Vdd -> false

let to_string = function Vdd -> "VDD" | Vss -> "VSS"
