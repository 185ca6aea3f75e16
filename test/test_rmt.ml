(* Tests for the RMT device substrate: parameters, CRC units, register
   arrays with stateful-ALU semantics, the TCAM range model and the
   device/resource accounting. *)

module P = Rmt.Params
module R = Rmt.Register_array
module T = Rmt.Tcam

(* -- Params -------------------------------------------------------------- *)

let test_params_default_valid () =
  match P.validate P.default with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_params_block_geometry () =
  Alcotest.(check int) "words per block" 256 (P.words_per_block P.default);
  Alcotest.(check int) "1 KB blocks" 1024 (P.bytes_per_block P.default)

let test_params_with_blocks () =
  let p = P.with_blocks_per_stage P.default 512 in
  Alcotest.(check int) "512 B blocks" 512 (P.bytes_per_block p);
  match P.validate p with Ok _ -> () | Error e -> Alcotest.fail e

let expect_invalid p msg =
  match P.validate p with
  | Ok _ -> Alcotest.fail ("expected invalid: " ^ msg)
  | Error _ -> ()

let test_params_invalid () =
  expect_invalid { P.default with P.logical_stages = 0 } "no stages";
  expect_invalid { P.default with P.ingress_stages = 0 } "no ingress";
  expect_invalid { P.default with P.ingress_stages = 21 } "ingress > total";
  expect_invalid { P.default with P.blocks_per_stage = 7 } "non-dividing blocks";
  expect_invalid { P.default with P.mar_bits = 8 } "mar too narrow";
  expect_invalid { P.default with P.recirc_limit = -1 } "negative recirc"

(* -- Crc ----------------------------------------------------------------- *)

let test_crc_deterministic () =
  Alcotest.(check int) "same input same hash" (Rmt.Crc.crc32 [ 1; 2; 3 ])
    (Rmt.Crc.crc32 [ 1; 2; 3 ])

let test_crc_input_sensitive () =
  Alcotest.(check bool) "different input" false
    (Rmt.Crc.crc32 [ 1; 2; 3 ] = Rmt.Crc.crc32 [ 1; 2; 4 ])

let test_crc_seed_sensitive () =
  Alcotest.(check bool) "seed changes hash" false
    (Rmt.Crc.crc32 ~seed:0 [ 5 ] = Rmt.Crc.crc32 ~seed:1 [ 5 ])

let test_crc_variants_differ () =
  Alcotest.(check bool) "crc32 vs crc32c" false
    (Rmt.Crc.crc32 [ 77 ] = Rmt.Crc.crc32c [ 77 ])

let test_crc_rows_differ () =
  let rows = List.init 6 (fun r -> Rmt.Crc.hash_words ~row:r [ 42; 43 ]) in
  Alcotest.(check int) "six distinct rows" 6
    (List.length (List.sort_uniq compare rows))

let test_crc_nonnegative () =
  for i = 0 to 100 do
    Alcotest.(check bool) "non-negative" true (Rmt.Crc.crc32 [ i; i * 7 ] >= 0)
  done

(* The two-word digests replace the list-based CRCs in per-packet key
   hashing, so they must agree on every word, negative ones included
   (only the low 32 bits of a word are hashed). *)
let prop_crc_two_words =
  QCheck.Test.make ~name:"crc32_2/crc32c_2 = list crc32/crc32c" ~count:2000
    QCheck.(pair int int)
    (fun (w0, w1) ->
      Rmt.Crc.crc32_2 w0 w1 = Rmt.Crc.crc32 [ w0; w1 ]
      && Rmt.Crc.crc32c_2 w0 w1 = Rmt.Crc.crc32c [ w0; w1 ])

(* -- Register_array ------------------------------------------------------ *)

let test_regs_read_write () =
  let r = R.create ~words:16 in
  Alcotest.(check int) "initially zero" 0 (R.access r ~index:3 R.Read).R.value;
  ignore (R.access r ~index:3 (R.Write 99));
  Alcotest.(check int) "written" 99 (R.access r ~index:3 R.Read).R.value

let test_regs_add_read () =
  let r = R.create ~words:4 in
  Alcotest.(check int) "inc to 1" 1 (R.access r ~index:0 (R.Add_read 1)).R.value;
  Alcotest.(check int) "inc by 5" 6 (R.access r ~index:0 (R.Add_read 5)).R.value

let test_regs_min_read () =
  let r = R.create ~words:4 in
  ignore (R.access r ~index:1 (R.Write 10));
  Alcotest.(check int) "min(10,3)" 3 (R.access r ~index:1 (R.Min_read 3)).R.value;
  Alcotest.(check int) "memory unchanged" 10 (R.get r 1)

let test_regs_max_write () =
  let r = R.create ~words:4 in
  ignore (R.access r ~index:2 (R.Write 10));
  Alcotest.(check int) "returns old" 10 (R.access r ~index:2 (R.Max_write 20)).R.value;
  Alcotest.(check int) "keeps max" 20 (R.get r 2);
  ignore (R.access r ~index:2 (R.Max_write 5));
  Alcotest.(check int) "smaller ignored" 20 (R.get r 2)

let test_regs_mask32 () =
  let r = R.create ~words:2 in
  ignore (R.access r ~index:0 (R.Write 0x1FFFFFFFF));
  Alcotest.(check int) "32-bit wrap" 0xFFFFFFFF (R.get r 0);
  ignore (R.access r ~index:0 (R.Add_read 1));
  Alcotest.(check int) "add wraps" 0 (R.get r 0)

let test_regs_bounds () =
  let r = R.create ~words:4 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (R.access r ~index:4 R.Read);
       false
     with Invalid_argument _ -> true)

let test_regs_access_count () =
  let r = R.create ~words:4 in
  ignore (R.access r ~index:0 R.Read);
  ignore (R.access r ~index:1 (R.Write 5));
  R.set r 2 7;
  ignore (R.get r 2);
  Alcotest.(check int) "control ops not counted" 2 (R.access_count r)

let test_regs_zero_range () =
  let r = R.create ~words:8 in
  for i = 0 to 7 do
    R.set r i (i + 1)
  done;
  R.zero_range r ~lo:2 ~hi:5;
  Alcotest.(check (list int)) "zeroed middle" [ 1; 2; 0; 0; 0; 0; 7; 8 ]
    (List.init 8 (R.get r))

let test_regs_snapshot_restore () =
  let r = R.create ~words:8 in
  for i = 0 to 7 do
    R.set r i (10 * i)
  done;
  let snap = R.snapshot_range r ~lo:2 ~hi:4 in
  Alcotest.(check (array int)) "snapshot" [| 20; 30; 40 |] snap;
  R.zero_range r ~lo:0 ~hi:7;
  R.restore_range r ~lo:5 snap;
  Alcotest.(check int) "restored elsewhere" 30 (R.get r 6)

(* -- Tcam ---------------------------------------------------------------- *)

let cover_matches ~width ~lo ~hi v =
  let ps = T.prefixes_of_range ~width ~lo ~hi in
  List.exists
    (fun p ->
      let shift = width - p.T.prefix_len in
      v lsr shift = p.T.value lsr shift)
    ps

let test_tcam_cover_exact () =
  let width = 8 in
  List.iter
    (fun (lo, hi) ->
      for v = 0 to 255 do
        Alcotest.(check bool)
          (Printf.sprintf "range [%d,%d] v=%d" lo hi v)
          (v >= lo && v <= hi)
          (cover_matches ~width ~lo ~hi v)
      done)
    [ (0, 255); (1, 1); (3, 17); (0, 127); (128, 255); (100, 101); (5, 250) ]

let test_tcam_cover_bound () =
  let width = 16 in
  List.iter
    (fun (lo, hi) ->
      let n = T.entries_for_range ~width ~lo ~hi in
      Alcotest.(check bool) "<= 2w-2" true (n <= (2 * width) - 2))
    [ (1, 65534); (1, 2); (12345, 54321); (0, 65535) ]

let test_tcam_full_range_one_entry () =
  Alcotest.(check int) "full range is one prefix" 1
    (T.entries_for_range ~width:8 ~lo:0 ~hi:255)

let prop_tcam_cover =
  QCheck.Test.make ~name:"prefix cover is exact" ~count:200
    QCheck.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let ok = ref true in
      for v = 0 to 255 do
        if cover_matches ~width:8 ~lo ~hi v <> (v >= lo && v <= hi) then ok := false
      done;
      !ok)

let test_tcam_capacity () =
  let t = T.create ~width:8 ~capacity:3 in
  (match T.install_range t ~lo:0 ~hi:255 with
  | Ok _ -> ()
  | Error `Capacity -> Alcotest.fail "should fit");
  Alcotest.(check int) "used 1" 1 (T.used t);
  (* [1,2] costs 2 entries; only 2 left. *)
  (match T.install_range t ~lo:1 ~hi:2 with
  | Ok _ -> ()
  | Error `Capacity -> Alcotest.fail "should fit exactly");
  Alcotest.(check int) "full" 0 (T.free t);
  match T.install_range t ~lo:0 ~hi:0 with
  | Ok _ -> Alcotest.fail "expected capacity failure"
  | Error `Capacity -> ()

let test_tcam_remove_idempotent () =
  let t = T.create ~width:8 ~capacity:10 in
  match T.install_range t ~lo:4 ~hi:7 with
  | Error `Capacity -> Alcotest.fail "fit"
  | Ok h ->
    Alcotest.(check bool) "matches inside" true (T.matches t 5);
    T.remove t h;
    T.remove t h;
    Alcotest.(check int) "freed once" 0 (T.used t);
    Alcotest.(check bool) "no match" false (T.matches t 5)

let prop_tcam_install_remove_balance =
  QCheck.Test.make ~name:"tcam install/remove leaves no residue" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (int_range 0 255) (int_range 0 255)))
    (fun ranges ->
      let t = T.create ~width:8 ~capacity:10_000 in
      let handles =
        List.filter_map
          (fun (a, b) ->
            let lo = min a b and hi = max a b in
            match T.install_range t ~lo ~hi with
            | Ok h -> Some h
            | Error `Capacity -> None)
          ranges
      in
      List.iter (T.remove t) handles;
      T.used t = 0)

(* -- Device & Resource --------------------------------------------------- *)

let test_device_geometry () =
  let d = Rmt.Device.create P.default in
  Alcotest.(check int) "stages" 20 (Rmt.Device.n_stages d);
  Alcotest.(check bool) "stage 0 ingress" true (Rmt.Device.is_ingress d 0);
  Alcotest.(check bool) "stage 9 ingress" true (Rmt.Device.is_ingress d 9);
  Alcotest.(check bool) "stage 10 egress" false (Rmt.Device.is_ingress d 10);
  Alcotest.(check int) "total words" (20 * 65536) (Rmt.Device.total_register_words d)

let test_device_stage_bounds () =
  let d = Rmt.Device.create P.default in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rmt.Device.stage d 20);
       false
     with Invalid_argument _ -> true)

let test_device_counters () =
  let d = Rmt.Device.create P.default in
  Rmt.Device.count_recirculation d;
  Rmt.Device.count_recirculation d;
  Rmt.Device.count_drop d;
  Alcotest.(check int) "recircs" 2 (Rmt.Device.recirculations d);
  Alcotest.(check int) "drops" 1 (Rmt.Device.drops d)

let test_resource_numbers () =
  let b = Rmt.Resource.default_budget in
  Alcotest.(check bool) "availability ~83%" true
    (abs_float (Rmt.Resource.activermt_stage_availability b -. 0.83) < 0.02);
  Alcotest.(check bool) "native cache ~92%" true
    (abs_float (Rmt.Resource.native_cache_availability b ~n_stages:20 -. 0.92) < 0.02);
  Alcotest.(check int) "22 monolithic instances" 22
    (Rmt.Resource.monolithic_p4_capacity b ~stages_per_app:2);
  Alcotest.(check int) "theoretical instances = words/stage" 65536
    (Rmt.Resource.activermt_theoretical_instances P.default);
  (* Section 7.1 trade-off: wider words, fewer shared state variables. *)
  Alcotest.(check int) "32-bit words: 23 variables" 23
    (Rmt.Resource.phv_state_variables 32);
  Alcotest.(check bool) "wider words fewer variables" true
    (Rmt.Resource.phv_state_variables 64 < Rmt.Resource.phv_state_variables 16);
  Alcotest.(check bool) "enough for the runtime's 9 words" true
    (Rmt.Resource.phv_state_variables 32 >= 9)

let () =
  Alcotest.run "rmt"
    [
      ( "params",
        [
          Alcotest.test_case "default valid" `Quick test_params_default_valid;
          Alcotest.test_case "block geometry" `Quick test_params_block_geometry;
          Alcotest.test_case "with_blocks" `Quick test_params_with_blocks;
          Alcotest.test_case "invalid configs" `Quick test_params_invalid;
        ] );
      ( "crc",
        [
          Alcotest.test_case "deterministic" `Quick test_crc_deterministic;
          Alcotest.test_case "input sensitive" `Quick test_crc_input_sensitive;
          Alcotest.test_case "seed sensitive" `Quick test_crc_seed_sensitive;
          Alcotest.test_case "variants differ" `Quick test_crc_variants_differ;
          Alcotest.test_case "rows differ" `Quick test_crc_rows_differ;
          Alcotest.test_case "non-negative" `Quick test_crc_nonnegative;
          QCheck_alcotest.to_alcotest prop_crc_two_words;
        ] );
      ( "registers",
        [
          Alcotest.test_case "read/write" `Quick test_regs_read_write;
          Alcotest.test_case "add_read" `Quick test_regs_add_read;
          Alcotest.test_case "min_read" `Quick test_regs_min_read;
          Alcotest.test_case "max_write" `Quick test_regs_max_write;
          Alcotest.test_case "32-bit masking" `Quick test_regs_mask32;
          Alcotest.test_case "bounds" `Quick test_regs_bounds;
          Alcotest.test_case "access count" `Quick test_regs_access_count;
          Alcotest.test_case "zero range" `Quick test_regs_zero_range;
          Alcotest.test_case "snapshot/restore" `Quick test_regs_snapshot_restore;
        ] );
      ( "tcam",
        [
          Alcotest.test_case "cover exact" `Quick test_tcam_cover_exact;
          Alcotest.test_case "cover bound" `Quick test_tcam_cover_bound;
          Alcotest.test_case "full range" `Quick test_tcam_full_range_one_entry;
          QCheck_alcotest.to_alcotest prop_tcam_cover;
          Alcotest.test_case "capacity" `Quick test_tcam_capacity;
          Alcotest.test_case "remove idempotent" `Quick test_tcam_remove_idempotent;
          QCheck_alcotest.to_alcotest prop_tcam_install_remove_balance;
        ] );
      ( "device",
        [
          Alcotest.test_case "geometry" `Quick test_device_geometry;
          Alcotest.test_case "stage bounds" `Quick test_device_stage_bounds;
          Alcotest.test_case "counters" `Quick test_device_counters;
          Alcotest.test_case "resource numbers" `Quick test_resource_numbers;
        ] );
    ]
