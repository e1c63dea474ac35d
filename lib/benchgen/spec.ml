type t = {
  name : string;
  singles : int;
  doubles : int;
  density : float;
  gp_hpwl_m : float;
}

let mk name singles doubles density gp_hpwl_m =
  { name; singles; doubles; density; gp_hpwl_m }

(* Table 1 (#S. Cell, #D. Cell, Density) and Table 2 (GP HPWL). *)
let all =
  [ mk "des_perf_1" 103842 8802 0.91 1.43;
    mk "des_perf_a" 99775 8513 0.43 2.57;
    mk "des_perf_b" 103842 8802 0.50 2.13;
    mk "edit_dist_a" 121913 5500 0.46 5.25;
    mk "fft_1" 30297 1984 0.84 0.46;
    mk "fft_2" 30297 1984 0.50 0.46;
    mk "fft_a" 28718 1907 0.25 0.75;
    mk "fft_b" 28718 1907 0.28 0.95;
    mk "matrix_mult_1" 152427 2898 0.80 2.39;
    mk "matrix_mult_2" 152427 2898 0.79 2.59;
    mk "matrix_mult_a" 146837 2813 0.42 3.77;
    mk "matrix_mult_b" 143695 2740 0.31 3.43;
    mk "matrix_mult_c" 143695 2740 0.31 3.29;
    mk "pci_bridge32_a" 26268 3249 0.38 0.46;
    mk "pci_bridge32_b" 25734 3180 0.14 0.98;
    mk "superblue11_a" 861314 64302 0.43 42.94;
    mk "superblue12" 1172586 114362 0.45 39.23;
    mk "superblue14" 564769 47474 0.56 27.98;
    mk "superblue16_a" 625419 55031 0.48 31.35;
    mk "superblue19" 478109 27988 0.52 20.76 ]

let find name = List.find (fun s -> s.name = name) all

let names = List.map (fun s -> s.name) all

let scaled factor spec =
  if not (factor > 0.0 && Float.is_finite factor) then
    invalid_arg "Spec.scaled: factor must be positive and finite";
  let scale count = int_of_float (Float.round (float_of_int count *. factor)) in
  { spec with
    singles = max 1 (scale spec.singles);
    doubles = (if spec.doubles = 0 then 0 else max 1 (scale spec.doubles)) }
