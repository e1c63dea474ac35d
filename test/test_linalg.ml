(* Unit and property tests for the linear-algebra substrate. *)

open Mclh_linalg

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* deterministic float stream for test data *)
let mk_rand seed =
  let state = ref seed in
  fun () ->
    state := (!state * 1103515245) + 12345;
    float_of_int (!state land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* ---------- Vec ---------- *)

let test_vec_basics () =
  let x = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  let y = Vec.of_list [ 0.5; 0.5; 0.5 ] in
  check_float "dot" 1.0 (Vec.dot x y);
  check_float "norm_inf" 3.0 (Vec.norm_inf x);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  check_float "sum" 2.0 (Vec.sum x);
  check_float "min" (-2.0) (Vec.min_elt x);
  check_float "max" 3.0 (Vec.max_elt x);
  Alcotest.(check bool)
    "add" true
    (Vec.equal (Vec.add x y) (Vec.of_list [ 1.5; -1.5; 3.5 ]));
  Alcotest.(check bool)
    "sub" true
    (Vec.equal (Vec.sub x y) (Vec.of_list [ 0.5; -2.5; 2.5 ]));
  Alcotest.(check bool)
    "scale" true
    (Vec.equal (Vec.scale 2.0 x) (Vec.of_list [ 2.0; -4.0; 6.0 ]))

let test_vec_parts () =
  let x = Vec.of_list [ 1.0; -2.0; 0.0 ] in
  let pos = Vec.pos_part x and neg = Vec.neg_part x in
  Alcotest.(check bool) "pos" true (Vec.equal pos (Vec.of_list [ 1.0; 0.0; 0.0 ]));
  Alcotest.(check bool) "neg" true (Vec.equal neg (Vec.of_list [ 0.0; 2.0; 0.0 ]));
  Alcotest.(check bool)
    "decompose" true
    (Vec.equal x (Vec.sub pos neg))

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; 2.0 ] in
  let y = Vec.of_list [ 10.0; 20.0 ] in
  Vec.axpy 3.0 x y;
  Alcotest.(check bool) "axpy" true (Vec.equal y (Vec.of_list [ 13.0; 26.0 ]))

let test_vec_dist () =
  let x = Vec.of_list [ 1.0; 5.0 ] and y = Vec.of_list [ 2.0; 2.0 ] in
  check_float "dist_inf" 3.0 (Vec.dist_inf x y)

let test_vec_errors () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot (Vec.zeros 2) (Vec.zeros 3)));
  Alcotest.check_raises "min empty"
    (Invalid_argument "Vec.min_elt: empty vector") (fun () ->
      ignore (Vec.min_elt [||]))

(* ---------- Dense / LU ---------- *)

let test_dense_mul () =
  let a = Dense.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Dense.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let ab = Dense.mul a b in
  Alcotest.(check bool)
    "mul" true
    (Dense.equal ab (Dense.of_arrays [| [| 2.0; 1.0 |]; [| 4.0; 3.0 |] |]));
  let x = Vec.of_list [ 1.0; 1.0 ] in
  Alcotest.(check bool)
    "mul_vec" true
    (Vec.equal (Dense.mul_vec a x) (Vec.of_list [ 3.0; 7.0 ]));
  Alcotest.(check bool)
    "mul_vec_t" true
    (Vec.equal (Dense.mul_vec_t a x) (Vec.of_list [ 4.0; 6.0 ]))

let test_dense_transpose_gram () =
  let a = Dense.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = Dense.transpose a in
  Alcotest.(check int) "rows" 3 (Dense.rows at);
  Alcotest.(check int) "cols" 2 (Dense.cols at);
  Alcotest.(check bool) "gram symmetric" true (Dense.is_symmetric (Dense.gram a));
  Alcotest.(check bool)
    "outer gram symmetric" true
    (Dense.is_symmetric (Dense.outer_gram a))

let test_lu_solve () =
  let a = Dense.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let b = Vec.of_list [ 5.0; 10.0 ] in
  let x = Lu.solve_system a b in
  Alcotest.(check bool) "solution" true (Vec.equal ~eps:1e-12 x (Vec.of_list [ 1.0; 3.0 ]))

let test_lu_pivoting () =
  (* zero pivot without swapping: requires partial pivoting *)
  let a = Dense.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_system a (Vec.of_list [ 2.0; 3.0 ]) in
  Alcotest.(check bool) "swap solve" true (Vec.equal x (Vec.of_list [ 3.0; 2.0 ]))

let test_lu_singular () =
  let a = Dense.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "raises Singular" true
    (try
       ignore (Lu.factorize a);
       false
     with Lu.Singular _ -> true)

let test_lu_det_inverse () =
  let a = Dense.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let f = Lu.factorize a in
  check_close 1e-9 "det" 10.0 (Lu.det f);
  let inv = Lu.inverse f in
  Alcotest.(check bool)
    "A * A^-1 = I" true
    (Dense.equal ~eps:1e-12 (Dense.mul a inv) (Dense.identity 2))

let test_lu_random_roundtrip () =
  let rand = mk_rand 7 in
  for n = 1 to 12 do
    let a = Dense.init n n (fun _ _ -> rand () -. 0.5) in
    (* diagonal boost keeps it comfortably nonsingular *)
    for i = 0 to n - 1 do
      Dense.set a i i (Dense.get a i i +. 3.0)
    done;
    let x_true = Vec.init n (fun i -> rand () +. float_of_int i) in
    let b = Dense.mul_vec a x_true in
    let x = Lu.solve_system a b in
    if not (Vec.equal ~eps:1e-8 x x_true) then
      Alcotest.failf "LU roundtrip failed at n = %d" n
  done

(* ---------- Tridiag ---------- *)

let random_tridiag rand n =
  let diag = Array.init n (fun _ -> 4.0 +. rand ()) in
  let off = Array.init (max 0 (n - 1)) (fun _ -> rand () -. 0.5) in
  Tridiag.of_symmetric ~diag ~off

let test_tridiag_solve_vs_lu () =
  let rand = mk_rand 11 in
  List.iter
    (fun n ->
      let t = random_tridiag rand n in
      let b = Vec.init n (fun i -> rand () *. float_of_int (i + 1)) in
      let x = Tridiag.solve t b in
      let x_ref = Lu.solve_system (Tridiag.to_dense t) b in
      if not (Vec.equal ~eps:1e-8 x x_ref) then
        Alcotest.failf "Thomas vs LU mismatch at n = %d" n)
    [ 1; 2; 3; 5; 17; 64 ]

let test_tridiag_pivoting_hard () =
  (* not diagonally dominant: plain Thomas still finishes here, but the
     pivoting variant must agree with the dense solve *)
  let t =
    Tridiag.make ~sub:[| 10.0; 0.5 |] ~diag:[| 0.1; 0.2; 5.0 |]
      ~sup:[| 3.0; -1.0 |]
  in
  let b = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  let x = Tridiag.solve_pivoting t b in
  let x_ref = Lu.solve_system (Tridiag.to_dense t) b in
  Alcotest.(check bool) "pivot vs LU" true (Vec.equal ~eps:1e-8 x x_ref)

let solve_prefactored = Solver_ref.solve_prefactored

let test_tridiag_prefactored () =
  let rand = mk_rand 101 in
  List.iter
    (fun n ->
      let t = random_tridiag rand n in
      let f = Tridiag.prefactor t in
      let b = Vec.init n (fun i -> rand () *. float_of_int (i + 1)) in
      let x_ref = Tridiag.solve t b in
      let dst = Vec.zeros n in
      solve_prefactored f b dst;
      if not (Vec.equal ~eps:1e-10 dst x_ref) then
        Alcotest.failf "prefactored mismatch at n = %d" n;
      (* in-place: b and dst aliased *)
      let b2 = Vec.copy b in
      solve_prefactored f b2 b2;
      if not (Vec.equal ~eps:1e-10 b2 x_ref) then
        Alcotest.failf "aliased prefactored mismatch at n = %d" n)
    [ 1; 2; 3; 9; 33 ]

let test_tridiag_mul_identity () =
  let t = Tridiag.identity 4 in
  let x = Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check bool) "I x = x" true (Vec.equal (Tridiag.mul_vec t x) x);
  Alcotest.(check bool)
    "dominant" true
    (Tridiag.is_diagonally_dominant t)

let test_tridiag_scale_shift () =
  let t = Tridiag.of_symmetric ~diag:[| 2.0; 2.0 |] ~off:[| -1.0 |] in
  let t2 = Tridiag.add_scaled_identity (Tridiag.scale 2.0 t) 1.0 in
  let x = Vec.of_list [ 1.0; 1.0 ] in
  Alcotest.(check bool)
    "(2T + I) x" true
    (Vec.equal (Tridiag.mul_vec t2 x) (Vec.of_list [ 3.0; 3.0 ]))

(* ---------- Coo / Csr ---------- *)

let test_coo_duplicates () =
  let c = Coo.create ~rows:2 ~cols:2 in
  Coo.add c 0 0 1.0;
  Coo.add c 0 0 2.0;
  Coo.add c 1 1 (-1.0);
  Coo.add c 1 1 1.0;
  let m = Coo.to_csr c in
  check_float "merged" 3.0 (Csr.get m 0 0);
  Alcotest.(check int) "zero dropped" 1 (Csr.nnz m)

(* a reserved COO takes that many triplets without allocating and
   converts to the same matrix as a growing one *)
let test_coo_reserve () =
  let grown = Coo.create ~rows:5 ~cols:5 in
  let sized = Coo.create ~rows:5 ~cols:5 in
  Coo.reserve sized 300;
  let v = 0.25 in
  let minor0 = Gc.minor_words () in
  for e = 0 to 299 do
    Coo.add sized (e mod 5) (e * 7 mod 5) v
  done;
  let words = Gc.minor_words () -. minor0 in
  for e = 0 to 299 do
    Coo.add grown (e mod 5) (e * 7 mod 5) v
  done;
  Alcotest.(check (float 0.0)) "no allocation after reserve" 0.0 words;
  let a = Coo.to_csr grown and b = Coo.to_csr sized in
  Alcotest.(check int) "same nnz" (Csr.nnz a) (Csr.nnz b);
  Csr.iter a (fun i j x -> check_float "same entry" x (Csr.get b i j))

(* the array-backed COO against the triplet-list builder it replaced
   (test/coo_ref.ml), bit for bit. A draw adds up to 200 triplets to a
   matrix of up to 8 x 8, so positions repeat often, with values drawn
   from a pool where the sum of a group depends on its order (0.1 beside
   1e16), cancels to 0.0 or -0.0, or is NaN; both [drop_zeros] settings *)
let qc_coo_equals_reference =
  let pool = [| 1.0; -1.0; 0.1; -0.1; 1e16; -1e16; 0.0; -0.0; 3.0; Float.nan |] in
  QCheck.Test.make ~count:300 ~name:"coo: to_csr = list assembly, bit for bit"
    QCheck.(quad (int_range 0 8) (int_range 0 8) (int_range 0 200)
              (pair (int_range 0 100_000) bool))
    (fun (rows, cols, m, (seed, drop_zeros)) ->
      let rand = mk_rand seed in
      let pick k = min (k - 1) (int_of_float (rand () *. float_of_int k)) in
      let coo = Coo.create ~rows ~cols in
      let oracle = Coo_ref.create ~rows ~cols in
      if rows > 0 && cols > 0 then
        for _ = 1 to m do
          let i = pick rows and j = pick cols in
          let v = pool.(pick (Array.length pool)) in
          Coo.add coo i j v;
          Coo_ref.add oracle i j v
        done;
      let entries a =
        let acc = ref [] in
        let bits v = Int64.bits_of_float (if Float.is_nan v then Float.nan else v) in
        Csr.iter a (fun i j v -> acc := (i, j, bits v) :: !acc);
        List.rev !acc
      in
      let got = Coo.to_csr ~drop_zeros coo in
      let expect = Coo_ref.to_csr ~drop_zeros oracle in
      Csr.rows got = Csr.rows expect
      && Csr.cols got = Csr.cols expect
      && Csr.nnz got = Csr.nnz expect
      && entries got = entries expect)

let test_csr_mul_vs_dense () =
  let rand = mk_rand 13 in
  let d =
    Dense.init 7 5 (fun _ _ -> if rand () < 0.6 then 0.0 else rand () -. 0.5)
  in
  let s = Coo.to_csr (Coo.of_dense d) in
  let x = Vec.init 5 (fun i -> rand () +. float_of_int i) in
  Alcotest.(check bool)
    "A x" true
    (Vec.equal ~eps:1e-12 (Csr.mul_vec s x) (Dense.mul_vec d x));
  let y = Vec.init 7 (fun i -> rand () -. float_of_int i) in
  Alcotest.(check bool)
    "A^T y" true
    (Vec.equal ~eps:1e-12 (Csr.mul_vec_t s y) (Dense.mul_vec_t d y))

let test_csr_transpose () =
  let rand = mk_rand 17 in
  let d =
    Dense.init 6 9 (fun _ _ -> if rand () < 0.7 then 0.0 else rand ())
  in
  let s = Coo.to_csr (Coo.of_dense d) in
  Alcotest.(check bool)
    "transpose" true
    (Dense.equal (Csr.to_dense (Csr.transpose s)) (Dense.transpose d))

let test_csr_add_mul () =
  let d = Dense.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 3.0 |] |] in
  let s = Coo.to_csr (Coo.of_dense d) in
  let acc = Vec.of_list [ 10.0; 10.0 ] in
  Csr.add_mul_vec s (Vec.of_list [ 1.0; 1.0 ]) acc;
  Alcotest.(check bool) "acc + A x" true (Vec.equal acc (Vec.of_list [ 13.0; 13.0 ]))

let test_csr_identity_row_entries () =
  let s = Csr.identity 3 in
  Alcotest.(check (list (pair int (float 0.0))))
    "row 1" [ (1, 1.0) ] (Csr.row_entries s 1);
  check_float "frobenius" (sqrt 3.0) (Csr.frobenius_norm s)

let test_csr_validation () =
  Alcotest.(check bool) "bad row_ptr rejected" true
    (try
       ignore
         (Csr.make ~rows:2 ~cols:2 ~row_ptr:[| 0; 2; 1 |] ~col_idx:[| 0 |]
            ~values:[| 1.0 |]);
       false
     with Invalid_argument _ -> true)

(* ---------- Blocks ---------- *)

let test_blocks_vs_e_matrix () =
  let rand = mk_rand 23 in
  let blocks = Blocks.make ~nvars:9 [ [| 0; 3 |]; [| 5; 6; 7 |] ] in
  Alcotest.(check int) "constraints" 3 (Blocks.num_constraints blocks);
  let e = Blocks.e_matrix blocks in
  let x = Vec.init 9 (fun _ -> rand () -. 0.5) in
  let via_blocks = Blocks.apply_ete blocks x in
  let via_matrix = Csr.mul_vec_t e (Csr.mul_vec e x) in
  Alcotest.(check bool)
    "E^T E x" true
    (Vec.equal ~eps:1e-12 via_blocks via_matrix)

let test_blocks_solve_shifted () =
  let rand = mk_rand 29 in
  let blocks = Blocks.make ~nvars:8 [ [| 1; 2 |]; [| 4; 5; 6; 7 |] ] in
  let alpha = 2.5 and coef = 7.0 in
  let b = Vec.init 8 (fun _ -> rand () *. 4.0 -. 2.0) in
  let y = Blocks.solve_shifted ~alpha ~coef blocks b in
  (* residual check against the operator itself *)
  let ete_y = Blocks.apply_ete blocks y in
  let recon = Vec.init 8 (fun i -> (alpha *. y.(i)) +. (coef *. ete_y.(i))) in
  Alcotest.(check bool) "residual" true (Vec.equal ~eps:1e-9 recon b)

let test_blocks_solve_sparse () =
  let blocks = Blocks.make ~nvars:6 [ [| 0; 1 |]; [| 3; 4 |] ] in
  let entries = [ (0, 1.0); (2, -2.0) ] in
  let sparse = Schur_ref.solve_shifted_sparse ~alpha:1.0 ~coef:3.0 blocks entries in
  let dense_rhs = Vec.zeros 6 in
  List.iter (fun (v, value) -> dense_rhs.(v) <- dense_rhs.(v) +. value) entries;
  let dense = Blocks.solve_shifted ~alpha:1.0 ~coef:3.0 blocks dense_rhs in
  let sparse_full = Vec.zeros 6 in
  List.iter (fun (v, value) -> sparse_full.(v) <- sparse_full.(v) +. value) sparse;
  Alcotest.(check bool) "sparse = dense" true (Vec.equal ~eps:1e-12 sparse_full dense)

let test_blocks_mismatch_average () =
  let blocks = Blocks.make ~nvars:4 [ [| 0; 1; 2 |] ] in
  let x = Vec.of_list [ 1.0; 4.0; 2.5; 9.0 ] in
  check_float "mismatch" 3.0 (Blocks.mismatch blocks x);
  Blocks.average_into blocks x;
  check_float "averaged hub" 2.5 x.(0);
  check_float "averaged spoke" 2.5 x.(1);
  check_float "untouched" 9.0 x.(3);
  check_float "mismatch after" 0.0 (Blocks.mismatch blocks x)

let test_blocks_validation () =
  Alcotest.(check bool) "overlapping chains rejected" true
    (try
       ignore (Blocks.make ~nvars:4 [ [| 0; 1 |]; [| 1; 2 |] ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Eig ---------- *)

let test_power_iteration_diag () =
  let a = Dense.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let r = Eig.dominant_dense a in
  Alcotest.(check bool) "converged" true r.Eig.converged;
  check_close 1e-5 "dominant" 3.0 r.Eig.value

let test_power_iteration_symmetric () =
  (* eigenvalues of [[2,1],[1,2]] are 3 and 1 *)
  let a = Dense.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let r = Eig.dominant_dense a in
  check_close 1e-5 "dominant" 3.0 r.Eig.value

(* ---------- QCheck properties ---------- *)

let qc_tridiag_solve =
  QCheck.Test.make ~count:100 ~name:"tridiag: solve then multiply is identity"
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 1) in
      let t = random_tridiag rand n in
      let b = Vec.init n (fun _ -> rand () *. 10.0 -. 5.0) in
      let x = Tridiag.solve t b in
      Vec.dist_inf (Tridiag.mul_vec t x) b < 1e-7)

let qc_blocks_shifted =
  QCheck.Test.make ~count:100 ~name:"blocks: shifted solve residual"
    QCheck.(triple (int_range 2 6) (int_range 0 1000) (float_range 0.1 100.0))
    (fun (chain_len, seed, coef) ->
      let rand = mk_rand (seed + 3) in
      let nvars = chain_len + 3 in
      let blocks =
        Blocks.make ~nvars [ Array.init chain_len (fun i -> i) ]
      in
      let b = Vec.init nvars (fun _ -> rand () *. 6.0 -. 3.0) in
      let y = Blocks.solve_shifted ~alpha:1.7 ~coef blocks b in
      let ete_y = Blocks.apply_ete blocks y in
      let recon = Vec.init nvars (fun i -> (1.7 *. y.(i)) +. (coef *. ete_y.(i))) in
      Vec.dist_inf recon b < 1e-7 *. Float.max 1.0 (Vec.norm_inf b))

let qc_csr_roundtrip =
  QCheck.Test.make ~count:100 ~name:"csr: dense -> csr -> dense roundtrip"
    QCheck.(pair (int_range 1 15) (int_range 0 1000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 5) in
      let d =
        Dense.init n (n + 2) (fun _ _ ->
            if rand () < 0.5 then 0.0 else rand () -. 0.5)
      in
      Dense.equal d (Csr.to_dense (Coo.to_csr (Coo.of_dense d))))

let qc_lu_solve =
  QCheck.Test.make ~count:60 ~name:"lu: random diagonally-boosted solve"
    QCheck.(pair (int_range 1 20) (int_range 0 1000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 9) in
      let a = Dense.init n n (fun _ _ -> rand () -. 0.5) in
      for i = 0 to n - 1 do
        Dense.set a i i (Dense.get a i i +. float_of_int n)
      done;
      let b = Vec.init n (fun _ -> rand () *. 2.0) in
      let x = Lu.solve_system a b in
      Vec.dist_inf (Dense.mul_vec a x) b < 1e-7)

(* the part kernels over any cuts give the whole kernels' bits: chains
   of 2-4 variables scattered over the range, some hubs above their
   spokes, signed zeros and infinities in the input *)
let qc_blocks_split =
  QCheck.Test.make ~count:100 ~name:"blocks: part kernels = whole kernels, bit for bit"
    QCheck.(triple (int_range 1 60) (int_range 1 6) (int_range 0 1000))
    (fun (nvars, parts, seed) ->
      let rand = Random.State.make [| seed |] in
      let perm = Array.init nvars Fun.id in
      for i = nvars - 1 downto 1 do
        let j = Random.State.int rand (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let chains = ref [] and k = ref 0 in
      while !k + 1 < nvars && Random.State.bool rand do
        let d = min (2 + Random.State.int rand 3) (nvars - !k) in
        chains := Array.sub perm !k d :: !chains;
        k := !k + d
      done;
      let blocks = Blocks.make ~nvars !chains in
      let cuts =
        Array.init (parts + 1) (fun p ->
            if p = 0 then 0
            else if p = parts then nvars
            else Random.State.int rand (nvars + 1))
      in
      Array.sort compare cuts;
      let sp = Blocks.split blocks cuts in
      let dim = nvars + 3 in
      let pick () =
        match Random.State.int rand 6 with
        | 0 -> -0.0
        | 1 -> 0.0
        | 2 -> infinity
        | _ -> Random.State.float rand 200.0 -. 100.0
      in
      let x = Array.init dim (fun _ -> pick ()) in
      let bits a = Array.map Int64.bits_of_float a in
      (* the parts fill the first nvars entries and leave the rest *)
      let expect whole = bits (Array.append whole (Array.make (dim - nvars) 7.0)) in
      let top = Array.sub x 0 nvars in
      let part = Array.make dim 7.0 in
      for p = 0 to parts - 1 do
        Blocks.apply_ete_part_into blocks sp p ~dim x part
      done;
      let ete_ok = expect (Blocks.apply_ete blocks top) = bits part in
      let whole = Blocks.solve_shifted ~alpha:1.5 ~coef:1000.0 blocks top in
      let part = Array.make dim 7.0 in
      for p = parts - 1 downto 0 do
        Blocks.solve_shifted_part_into ~alpha:1.5 ~coef:1000.0 blocks sp p ~dim x
          part
      done;
      ete_ok && expect whole = bits part)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ qc_tridiag_solve; qc_blocks_shifted; qc_blocks_split; qc_csr_roundtrip;
        qc_lu_solve ]
  in
  Alcotest.run "linalg"
    [ ( "vec",
        [ Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "pos/neg parts" `Quick test_vec_parts;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "dist_inf" `Quick test_vec_dist;
          Alcotest.test_case "errors" `Quick test_vec_errors ] );
      ( "dense",
        [ Alcotest.test_case "mul" `Quick test_dense_mul;
          Alcotest.test_case "transpose/gram" `Quick test_dense_transpose_gram ] );
      ( "lu",
        [ Alcotest.test_case "solve 2x2" `Quick test_lu_solve;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "det/inverse" `Quick test_lu_det_inverse;
          Alcotest.test_case "random roundtrip" `Quick test_lu_random_roundtrip ] );
      ( "tridiag",
        [ Alcotest.test_case "thomas vs lu" `Quick test_tridiag_solve_vs_lu;
          Alcotest.test_case "pivoting hard case" `Quick test_tridiag_pivoting_hard;
          Alcotest.test_case "prefactored solves" `Quick test_tridiag_prefactored;
          Alcotest.test_case "identity" `Quick test_tridiag_mul_identity;
          Alcotest.test_case "scale/shift" `Quick test_tridiag_scale_shift ] );
      ( "sparse",
        [ Alcotest.test_case "coo duplicates" `Quick test_coo_duplicates;
          Alcotest.test_case "coo reserve" `Quick test_coo_reserve;
          QCheck_alcotest.to_alcotest qc_coo_equals_reference;
          Alcotest.test_case "mul vs dense" `Quick test_csr_mul_vs_dense;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "add_mul" `Quick test_csr_add_mul;
          Alcotest.test_case "identity/rows" `Quick test_csr_identity_row_entries;
          Alcotest.test_case "validation" `Quick test_csr_validation ] );
      ( "blocks",
        [ Alcotest.test_case "vs explicit E" `Quick test_blocks_vs_e_matrix;
          Alcotest.test_case "shifted solve" `Quick test_blocks_solve_shifted;
          Alcotest.test_case "sparse solve" `Quick test_blocks_solve_sparse;
          Alcotest.test_case "mismatch/average" `Quick test_blocks_mismatch_average;
          Alcotest.test_case "validation" `Quick test_blocks_validation ] );
      ( "eig",
        [ Alcotest.test_case "diagonal" `Quick test_power_iteration_diag;
          Alcotest.test_case "symmetric" `Quick test_power_iteration_symmetric ] );
      ("properties", qsuite) ]
