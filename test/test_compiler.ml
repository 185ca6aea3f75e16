(* Tests for the client compiler: constraint extraction (the paper's
   LB/UB/B example for Listing 1), mutant enumeration and synthesis. *)

module Spec = Activermt_compiler.Spec
module Mutant = Activermt_compiler.Mutant
module P = Activermt.Program
module I = Activermt.Instr

let params = Rmt.Params.default
let cache_spec = Spec.analyze Activermt_apps.Cache.query_program
let hh_spec = Spec.analyze Activermt_apps.Heavy_hitter.program
let lb_spec = Spec.analyze Activermt_apps.Cheetah_lb.syn_program

(* -- Spec ---------------------------------------------------------------- *)

let test_cache_constraints_match_paper () =
  (* Section 4.2: accesses at (1-based) 2, 5, 9; minimum distances
     B = [1 3 4] expressed here as gaps [2;3;4] (our gaps.(0) is the
     1-based position of the first access). *)
  Alcotest.(check (array int)) "accesses" [| 1; 4; 8 |] cache_spec.Spec.accesses;
  Alcotest.(check (array int)) "gaps" [| 2; 3; 4 |] cache_spec.Spec.gaps;
  Alcotest.(check int) "length" 11 cache_spec.Spec.length;
  Alcotest.(check (array int)) "LB = [2 5 9]" [| 2; 5; 9 |]
    (Spec.lower_bounds cache_spec)

let test_cache_upper_bounds_with_rts () =
  (* Paper: with RTS restricted to the ingress pipeline the upper bound
     becomes [4 7 11]. *)
  Alcotest.(check (array int)) "UB with RTS" [| 4; 7; 11 |]
    (Spec.upper_bounds cache_spec ~n_stages:20 ~ingress:10 ~max_passes:1)

let test_cache_upper_bounds_without_rts () =
  (* Paper: without the RTS constraint, UB = [11 14 18]. *)
  let no_rts = { cache_spec with Spec.rts = None } in
  Alcotest.(check (array int)) "UB without RTS" [| 11; 14; 18 |]
    (Spec.upper_bounds no_rts ~n_stages:20 ~ingress:10 ~max_passes:1)

let test_no_access_spec () =
  let p = P.v (P.plain [ I.Nop; I.Return ]) in
  let s = Spec.analyze p in
  Alcotest.(check (array int)) "no accesses" [||] s.Spec.accesses;
  Alcotest.(check (array int)) "no UBs" [||]
    (Spec.upper_bounds s ~n_stages:20 ~ingress:10 ~max_passes:1)

let test_request_roundtrip () =
  let req =
    Spec.to_request ~elastic:true ~demand_blocks:[| 1; 1; 1 |] cache_spec
  in
  Alcotest.(check int) "length" 11 req.Activermt.Packet.prog_length;
  Alcotest.(check (option int)) "rts" (Some 7) req.Activermt.Packet.rts_position;
  let back = Spec.of_request req in
  Alcotest.(check (array int)) "accesses survive" cache_spec.Spec.accesses
    back.Spec.accesses;
  Alcotest.(check (array int)) "gaps survive" cache_spec.Spec.gaps back.Spec.gaps;
  Alcotest.(check int) "length survives" cache_spec.Spec.length back.Spec.length;
  Alcotest.(check (option int)) "rts survives" cache_spec.Spec.rts back.Spec.rts

let test_request_demand_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Spec.to_request ~elastic:true ~demand_blocks:[| 1 |] cache_spec);
       false
     with Invalid_argument _ -> true)

(* [Spec.of_request] against the construction it replaced, kept here as
   the oracle: one line record per instruction from [List.init], each
   scanning the accesses, copied into the program.  Over random
   decodable requests (positions past the program and an RTS sharing an
   access's position included), both must give the same [Spec.t]. *)
let of_request_oracle (r : Activermt.Packet.request) =
  let accesses =
    Array.of_list (List.map (fun a -> a.Activermt.Packet.position) r.accesses)
  in
  let gaps = Array.of_list (List.map (fun a -> a.Activermt.Packet.min_gap) r.accesses) in
  let lines =
    List.init r.prog_length (fun i ->
        let is_access = Array.exists (fun a -> a = i) accesses in
        let instr =
          if is_access then I.Mem_read
          else if r.rts_position = Some i then I.Rts
          else I.Nop
        in
        P.line instr)
  in
  {
    Spec.program = P.v ~name:"request" lines;
    length = r.prog_length;
    accesses;
    gaps;
    rts = r.rts_position;
  }

let request_gen =
  let open QCheck.Gen in
  let byte = frequency [ (3, int_range 0 40); (1, int_range 0 0xff) ] in
  let access =
    map3
      (fun position min_gap demand_blocks ->
        { Activermt.Packet.position; min_gap; demand_blocks })
      byte byte byte
  in
  map3
    (fun prog_length rts_position accesses ->
      { Activermt.Packet.prog_length; rts_position; accesses })
    byte
    (opt (map (fun p -> min p 0xfe) byte))
    (list_size (int_range 0 Activermt.Packet.max_request_accesses) access)

let prop_of_request_oracle =
  QCheck.Test.make ~name:"of_request = the List.init construction" ~count:500
    (QCheck.make request_gen) (fun r ->
      let got = Spec.of_request r and want = of_request_oracle r in
      Activermt.Packet.decodable_request r
      && P.equal got.Spec.program want.Spec.program
      && got.Spec.program.P.name = want.Spec.program.P.name
      && got.Spec.length = want.Spec.length
      && got.Spec.accesses = want.Spec.accesses
      && got.Spec.gaps = want.Spec.gaps
      && got.Spec.rts = want.Spec.rts)

(* -- Mutant enumeration -------------------------------------------------- *)

let test_base_passes () =
  Alcotest.(check int) "cache 1 pass" 1 (Mutant.base_passes params cache_spec);
  Alcotest.(check int) "hh 2 passes" 2 (Mutant.base_passes params hh_spec);
  Alcotest.(check int) "lb 2 passes" 2 (Mutant.base_passes params lb_spec)

let test_identity_mutant () =
  let m = Mutant.identity cache_spec in
  Alcotest.(check (array int)) "no shift" [| 0; 0; 0 |] m.Mutant.shifts;
  Alcotest.(check (array int)) "compact stages" [| 1; 4; 8 |] m.Mutant.stages;
  Alcotest.(check int) "one pass" 1 m.Mutant.passes;
  Alcotest.(check bool) "no port recirc" false m.Mutant.port_recirc

let test_cache_mc_count () =
  (* With the total-shift RTS bound, shifts are non-decreasing triples
     bounded by 2: C(5,3) = 10 placements. *)
  Alcotest.(check int) "10 mc mutants" 10
    (Mutant.count params Mutant.Most_constrained cache_spec)

let test_hh_mc_single_mutant () =
  (* The paper's most-constrained heavy hitter also has exactly one
     placement. *)
  Alcotest.(check int) "1 mc mutant" 1
    (Mutant.count params Mutant.Most_constrained hh_spec)

let test_lc_exceeds_mc () =
  List.iter
    (fun spec ->
      let mc = Mutant.count params Mutant.Most_constrained spec in
      let lc = Mutant.count params Mutant.Least_constrained spec in
      Alcotest.(check bool) "lc >= mc" true (lc >= mc))
    [ cache_spec; hh_spec; lb_spec ]

let test_enumerate_deterministic () =
  let a = Mutant.enumerate ~limit:100 params Mutant.Least_constrained lb_spec in
  let b = Mutant.enumerate ~limit:100 params Mutant.Least_constrained lb_spec in
  Alcotest.(check bool) "same list" true
    (List.for_all2 (fun x y -> x.Mutant.shifts = y.Mutant.shifts) a b)

let test_enumerate_limit_and_identity () =
  let ms = Mutant.enumerate ~limit:10 params Mutant.Least_constrained lb_spec in
  Alcotest.(check bool) "capped" true (List.length ms <= 10);
  match ms with
  | first :: _ ->
    Alcotest.(check (array int)) "identity first" [| 0; 0; 0; 0 |] first.Mutant.shifts
  | [] -> Alcotest.fail "empty"

let test_subsample_is_diverse () =
  (* The stride sample must include mutants that shift the *first*
     access, not only a lexicographic prefix. *)
  let ms = Mutant.enumerate ~limit:64 params Mutant.Least_constrained lb_spec in
  Alcotest.(check bool) "first access shifted somewhere" true
    (List.exists (fun m -> m.Mutant.shifts.(0) > 0) ms)

let mutant_respects_constraints spec m =
  let lb = Spec.lower_bounds spec in
  let shifts = m.Mutant.shifts in
  let positions = m.Mutant.positions in
  let m_count = Array.length positions in
  let nondecreasing = ref true in
  for i = 1 to m_count - 1 do
    if shifts.(i) < shifts.(i - 1) then nondecreasing := false
  done;
  let gaps_ok = ref true in
  for i = 1 to m_count - 1 do
    if positions.(i) - positions.(i - 1) < spec.Spec.gaps.(i) then gaps_ok := false
  done;
  let lb_ok = ref true in
  Array.iteri (fun i p -> if p + 1 < lb.(i) then lb_ok := false) positions;
  !nondecreasing && !gaps_ok && !lb_ok

let test_all_mutants_valid () =
  List.iter
    (fun (spec, policy) ->
      let ms = Mutant.enumerate ~limit:2000 params policy spec in
      Alcotest.(check bool) "all satisfy constraints" true
        (List.for_all (mutant_respects_constraints spec) ms))
    [
      (cache_spec, Mutant.Most_constrained);
      (cache_spec, Mutant.Least_constrained);
      (hh_spec, Mutant.Least_constrained);
      (lb_spec, Mutant.Most_constrained);
    ]

let test_no_access_single_mutant () =
  let p = P.v (P.plain [ I.Nop; I.Return ]) in
  let s = Spec.analyze p in
  Alcotest.(check int) "identity only" 1
    (Mutant.count params Mutant.Most_constrained s)

(* Random program specs: strictly increasing access positions with a small
   tail; every enumerated mutant must satisfy the constraint system. *)
let spec_gen =
  QCheck.Gen.(
    let* m = int_range 1 5 in
    let* gaps = list_repeat m (int_range 1 3) in
    let positions =
      List.fold_left
        (fun acc g -> (List.hd acc + g) :: acc)
        [ 0 ]
        (match gaps with [] -> [] | _ :: t -> t)
      |> List.rev
    in
    let* lead = int_range 0 2 in
    let positions = List.map (fun p -> p + lead) positions in
    let last = List.fold_left max 0 positions in
    let* tail = int_range 1 3 in
    let len = last + tail in
    let lines =
      List.init len (fun i -> if List.mem i positions then I.Mem_read else I.Nop)
    in
    return (Spec.analyze (P.v (P.plain lines))))

let prop_mutants_valid =
  QCheck.Test.make ~name:"random specs: every mutant satisfies constraints"
    ~count:100 (QCheck.make spec_gen) (fun spec ->
      let ms = Mutant.enumerate ~limit:500 params Mutant.Least_constrained spec in
      ms <> [] && List.for_all (mutant_respects_constraints spec) ms)

let same_mutant_list a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.Mutant.shifts = y.Mutant.shifts
         && x.Mutant.positions = y.Mutant.positions
         && x.Mutant.stages = y.Mutant.stages
         && x.Mutant.passes = y.Mutant.passes
         && x.Mutant.port_recirc = y.Mutant.port_recirc)
       a b

(* The single-pass enumeration (count-while-buffering plus the memoized
   count) must reproduce the seed's two-pass candidate list exactly; the
   second call exercises the warm (memoized-count) code path. *)
let prop_enumerate_matches_reference =
  QCheck.Test.make ~name:"single-pass enumerate = two-pass reference (cold+warm)"
    ~count:100
    QCheck.(pair (make spec_gen) (int_range 1 200))
    (fun (spec, limit) ->
      List.for_all
        (fun policy ->
          let reference = Mutant.enumerate_reference ~limit params policy spec in
          let cold = Mutant.enumerate ~limit params policy spec in
          let warm = Mutant.enumerate ~limit params policy spec in
          same_mutant_list reference cold && same_mutant_list reference warm)
        [ Mutant.Most_constrained; Mutant.Least_constrained ])

let test_enumerate_matches_reference_large_space () =
  (* hh/lc's feasibility region (~231k placements) overflows the
     single-pass keep buffer, forcing the fallback materialize walk; lb/lc
     exercises the strided subsample within the buffer. *)
  List.iter
    (fun (spec, limit) ->
      let reference = Mutant.enumerate_reference ~limit params Mutant.Least_constrained spec in
      let fast = Mutant.enumerate ~limit params Mutant.Least_constrained spec in
      let warm = Mutant.enumerate ~limit params Mutant.Least_constrained spec in
      Alcotest.(check bool) "cold matches reference" true (same_mutant_list reference fast);
      Alcotest.(check bool) "warm matches reference" true (same_mutant_list reference warm))
    [ (hh_spec, 128); (lb_spec, 64) ]

(* The seed's hashtable merge, as the oracle for the flat-array version. *)
let demand_by_stage_oracle (m : Mutant.t) ~demand_blocks =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl s) in
      Hashtbl.replace tbl s (max cur demand_blocks.(i)))
    m.Mutant.stages;
  Hashtbl.fold (fun s d acc -> (s, d) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let test_demand_arrays_match_oracle () =
  List.iter
    (fun spec ->
      (* Unequal per-access demands so same-stage merging by [max] is
         actually exercised (hh revisits stages across passes). *)
      let demand_blocks = Array.mapi (fun i _ -> (i mod 3) + 1) spec.Spec.accesses in
      List.iter
        (fun m ->
          let stages, demands = Mutant.demand_by_stage_arrays m ~demand_blocks in
          let got = Array.to_list (Array.mapi (fun i s -> (s, demands.(i))) stages) in
          Alcotest.(check (list (pair int int)))
            "flat arrays match the hashtable oracle"
            (demand_by_stage_oracle m ~demand_blocks)
            got;
          Alcotest.(check (list (pair int int)))
            "assoc-list view matches too"
            (Mutant.demand_by_stage m ~demand_blocks)
            got)
        (Mutant.enumerate ~limit:50 params Mutant.Least_constrained spec))
    [ cache_spec; hh_spec; lb_spec ]

let test_upper_bounds_monotone_in_passes () =
  List.iter
    (fun spec ->
      let ub1 = Spec.upper_bounds spec ~n_stages:20 ~ingress:10 ~max_passes:2 in
      let ub2 = Spec.upper_bounds spec ~n_stages:20 ~ingress:10 ~max_passes:3 in
      Array.iteri
        (fun i u -> Alcotest.(check bool) "more passes, looser bounds" true (ub2.(i) >= u))
        ub1)
    [ cache_spec; hh_spec; lb_spec ]

(* -- Synthesis ----------------------------------------------------------- *)

let test_synthesize_identity () =
  let m = Mutant.identity cache_spec in
  let p = Mutant.synthesize cache_spec m in
  Alcotest.(check bool) "identity synthesis is the original" true
    (P.equal p cache_spec.Spec.program)

let test_synthesize_moves_accesses () =
  let ms = Mutant.enumerate params Mutant.Most_constrained cache_spec in
  List.iter
    (fun m ->
      let p = Mutant.synthesize cache_spec m in
      Alcotest.(check (list int)) "accesses land on mutant positions"
        (Array.to_list m.Mutant.positions)
        (P.memory_access_positions p);
      match P.validate p with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (P.error_to_string e))
    ms

let test_synthesize_preserves_instruction_sequence () =
  (* NOP insertion only: the non-NOP instruction sequence is unchanged. *)
  let ms = Mutant.enumerate ~limit:50 params Mutant.Least_constrained cache_spec in
  let strip (p : P.t) =
    Array.to_list p.P.lines
    |> List.filter (fun l -> l.P.instr <> I.Nop)
    |> List.map (fun l -> l.P.instr)
  in
  let original = strip cache_spec.Spec.program in
  List.iter
    (fun m ->
      let p = Mutant.synthesize cache_spec m in
      Alcotest.(check bool) "same non-NOP sequence" true (strip p = original))
    ms

let test_demand_by_stage_max_merge () =
  let m = Mutant.identity hh_spec in
  let demand = Mutant.demand_by_stage m ~demand_blocks:[| 16; 16; 16; 16; 16; 16 |] in
  (* The threshold read (stage 15, pass 1) and write (stage 15, pass 2)
     merge by max, leaving 5 distinct stages. *)
  Alcotest.(check int) "five stages" 5 (List.length demand);
  Alcotest.(check bool) "each 16 blocks" true
    (List.for_all (fun (_, d) -> d = 16) demand)

let test_hh_threshold_stage_aligned () =
  let m = Mutant.identity hh_spec in
  let s = m.Mutant.stages in
  Alcotest.(check int) "read and write share a stage"
    s.(Activermt_apps.Heavy_hitter.threshold_access)
    s.(3)

let () =
  Alcotest.run "compiler"
    [
      ( "spec",
        [
          Alcotest.test_case "cache constraints (paper)" `Quick
            test_cache_constraints_match_paper;
          Alcotest.test_case "UB with RTS = [4 7 11]" `Quick
            test_cache_upper_bounds_with_rts;
          Alcotest.test_case "UB without RTS = [11 14 18]" `Quick
            test_cache_upper_bounds_without_rts;
          Alcotest.test_case "no-access spec" `Quick test_no_access_spec;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "demand mismatch" `Quick test_request_demand_mismatch;
          QCheck_alcotest.to_alcotest prop_of_request_oracle;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "base passes" `Quick test_base_passes;
          Alcotest.test_case "identity" `Quick test_identity_mutant;
          Alcotest.test_case "cache mc count" `Quick test_cache_mc_count;
          Alcotest.test_case "hh single mc mutant" `Quick test_hh_mc_single_mutant;
          Alcotest.test_case "lc >= mc" `Quick test_lc_exceeds_mc;
          Alcotest.test_case "deterministic" `Quick test_enumerate_deterministic;
          Alcotest.test_case "limit + identity first" `Quick
            test_enumerate_limit_and_identity;
          Alcotest.test_case "subsample diverse" `Quick test_subsample_is_diverse;
          Alcotest.test_case "all mutants valid" `Quick test_all_mutants_valid;
          Alcotest.test_case "no-access single mutant" `Quick
            test_no_access_single_mutant;
          QCheck_alcotest.to_alcotest prop_mutants_valid;
          QCheck_alcotest.to_alcotest prop_enumerate_matches_reference;
          Alcotest.test_case "single-pass oracle, large spaces" `Quick
            test_enumerate_matches_reference_large_space;
          Alcotest.test_case "demand arrays oracle" `Quick
            test_demand_arrays_match_oracle;
          Alcotest.test_case "UB monotone in passes" `Quick
            test_upper_bounds_monotone_in_passes;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "identity" `Quick test_synthesize_identity;
          Alcotest.test_case "moves accesses" `Quick test_synthesize_moves_accesses;
          Alcotest.test_case "preserves instruction sequence" `Quick
            test_synthesize_preserves_instruction_sequence;
          Alcotest.test_case "demand max merge" `Quick test_demand_by_stage_max_merge;
          Alcotest.test_case "hh threshold alignment" `Quick
            test_hh_threshold_stage_aligned;
        ] );
    ]
