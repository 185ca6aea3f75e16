(* One declared shape for every BENCH_alloc.json section.

   A section names the top-level keys of BENCH_alloc.json it owns, a
   [run ~quick] that measures and returns one JSON body per key, a
   [metrics] view that reads the gated numbers back out of a
   BENCH_alloc.json object (named metrics per row), and the gates on
   those metrics.  Everything else derives from that declaration:

   - [write] merges the bodies into BENCH_alloc.json, replacing only the
     section's own keys and stamping the run mode ("quick") into the
     first body;
   - [bench] is what bench/main.exe runs: run, write, then check the
     absolute gates (relative ones need the baseline);
   - [compare] is the whole of bench_compare.exe: every gate of every
     section against the committed baseline (bench/baseline_alloc.json),
     printed as one markdown table.

   A relative gate carries its tolerance: [Max_drop 0.3] holds a value to
   at least 70 % of its baseline, [Max_growth 2.0] to at most twice it. *)

module Json = Activermt_telemetry.Json

type bound =
  | At_least of float
  | Above of float
  | At_most of float
  | Below of float
  | Equal of float
  | Max_drop of float
  | Max_growth of float

type gate = {
  metric : string;
  rows : string list;  (** rows the gate applies to; [] means every row *)
  full_only : bool;  (** not checked in --quick runs *)
  bound : bound;
}

let gate ?(rows = []) ?(full_only = false) metric bound =
  { metric; rows; full_only; bound }

(* A row key ("" for single-row sections) and its named metrics. *)
type row = string * (string * float) list

type t = {
  name : string;  (** bench/main.exe selector *)
  info : string;
  keys : string list;  (** owned top-level keys; the first carries the mode stamp *)
  run : quick:bool -> Json.t list;  (** one body per key *)
  metrics : Json.t -> row list;  (** over a whole BENCH_alloc.json object *)
  gates : gate list;
}

(* -- Reading metrics out of section bodies -------------------------------- *)

let member key json = Option.value ~default:Json.Null (Json.member key json)
let num key json = Option.bind (Json.member key json) Json.to_num
let str key json = Option.value ~default:"" (Json.to_str (member key json))
let items key json = Option.value ~default:[] (Json.to_arr (member key json))

let nums keys json =
  List.filter_map (fun k -> Option.map (fun v -> (k, v)) (num k json)) keys

(* -- Gates ---------------------------------------------------------------- *)

(* The value at the bound; [None] for a relative bound with no baseline. *)
let limit bound ~baseline =
  match (bound, baseline) with
  | (At_least x | Above x | At_most x | Below x | Equal x), _ -> Some x
  | Max_drop x, Some b -> Some ((1.0 -. x) *. b)
  | Max_growth x, Some b -> Some (x *. b)
  | (Max_drop _ | Max_growth _), None -> None

let holds bound v l =
  match bound with
  | At_least _ | Max_drop _ -> v >= l
  | Above _ -> v > l
  | At_most _ | Max_growth _ -> v <= l
  | Below _ -> v < l
  | Equal _ -> v = l

let fmt v = Printf.sprintf "%.6g" v

let describe bound l =
  match bound with
  | At_least _ -> ">= " ^ fmt l
  | Above _ -> "> " ^ fmt l
  | At_most _ -> "<= " ^ fmt l
  | Below _ -> "< " ^ fmt l
  | Equal _ -> "= " ^ fmt l
  | Max_drop x -> Printf.sprintf ">= %s (%g%% drop)" (fmt l) (100.0 *. x)
  | Max_growth x -> Printf.sprintf "<= %s (%gx growth)" (fmt l) x

type verdict = Pass | Fail | Missing | Info | Mode_mismatch

type result = {
  verdict : verdict;
  section : string;
  row : string;
  gate : gate option;
  baseline : string;
  value : string;
  detail : string;
}

let failed r =
  match r.verdict with Fail | Missing | Mode_mismatch -> true | Pass | Info -> false

(* Every gate of [s], row by row.  With [baseline = None] relative gates
   are skipped; a row or metric the candidate lacks is [Missing], one the
   baseline lacks leaves its relative gates at [Info]. *)
let check s ~quick ~baseline ~candidate =
  let base_rows = Option.value ~default:[] baseline in
  let keys =
    List.fold_left
      (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
      []
      (List.map fst candidate @ List.map fst base_rows
      @ List.concat_map (fun g -> g.rows) s.gates)
  in
  let eval row g =
    let find rows = Option.bind (List.assoc_opt row rows) (List.assoc_opt g.metric) in
    let b = find base_rows in
    let result verdict value detail =
      let baseline = Option.fold ~none:"" ~some:fmt b in
      Some { verdict; section = s.name; row; gate = Some g; baseline; value; detail }
    in
    if (g.full_only && quick) || (g.rows <> [] && not (List.mem row g.rows)) then None
    else
      match (find candidate, limit g.bound ~baseline:b) with
      | None, _ -> result Missing "" "absent from candidate"
      | Some _, None when baseline = None -> None
      | Some v, None -> result Info (fmt v) "no baseline value"
      | Some v, Some l ->
        result (if holds g.bound v l then Pass else Fail) (fmt v) (describe g.bound l)
  in
  List.concat_map (fun row -> List.filter_map (eval row) s.gates) keys

(* -- BENCH_alloc.json ------------------------------------------------------ *)

let path = "BENCH_alloc.json"

let load file =
  match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok v -> v
  | Error e -> failwith (file ^ ": " ^ e)

let stamp ~quick = function
  | Json.Obj fields ->
    Json.Obj (List.remove_assoc "quick" fields @ [ ("quick", Json.Bool quick) ])
  | body -> body

(* Replace the section's own keys (in place, or appended when new) and
   keep every other key of the file as it was. *)
let write ~path ~quick s bodies =
  let old =
    match Json.to_obj (load path) with
    | Some fields -> fields
    | None -> []
    | exception (Sys_error _ | Failure _) -> []
  in
  let own =
    List.combine s.keys (List.mapi (fun i b -> if i = 0 then stamp ~quick b else b) bodies)
  in
  let kept =
    List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k own))) old
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k old)) own in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string ~pretty:true (Json.Obj (kept @ added)) ^ "\n"))

(* A section's mode is its own stamp; files written before per-section
   stamps only carry the alloc section's [meta.quick]. *)
let mode s file =
  let quick key = Option.bind (Json.member "quick" (member key file)) Json.to_bool in
  match quick (List.hd s.keys) with Some q -> Some q | None -> quick "meta"

let present s file = Json.member (List.hd s.keys) file <> None

let compare sections ~baseline ~candidate =
  List.concat_map
    (fun s ->
      let info verdict baseline value detail =
        { verdict; section = s.name; row = ""; gate = None; baseline; value; detail }
      in
      let show = function Some true -> "quick" | Some false -> "full" | None -> "?" in
      match (present s baseline, present s candidate, mode s baseline, mode s candidate) with
      | _, false, _, _ -> [ info Info "" "" "section not in candidate (not run?)" ]
      | true, true, Some b, Some c when b <> c ->
        [ info Mode_mismatch (show (Some b)) (show (Some c)) "mode mismatch: not compared" ]
      | in_base, true, _, c ->
        let quick = Option.value ~default:true c in
        let candidate = s.metrics candidate in
        if in_base then check s ~quick ~baseline:(Some (s.metrics baseline)) ~candidate
        else
          info Info "" (show c) "new section: relative gates skipped"
          :: check s ~quick ~baseline:None ~candidate)
    sections

let print_table results =
  let verdict = function
    | Pass -> "OK"
    | Fail -> "FAIL"
    | Missing -> "MISSING"
    | Info -> "INFO"
    | Mode_mismatch -> "MODE MISMATCH"
  in
  print_endline "| verdict | section | row | metric | baseline | value | bound |";
  print_endline "| --- | --- | --- | --- | --- | --- | --- |";
  List.iter
    (fun r ->
      Printf.printf "| %s | %s | %s | %s | %s | %s | %s |\n" (verdict r.verdict)
        r.section r.row
        (Option.fold ~none:"" ~some:(fun g -> g.metric) r.gate)
        r.baseline r.value r.detail)
    results

(* One section of bench/main.exe: measure, write, then check. *)
let bench s ~quick =
  let bodies = s.run ~quick in
  write ~path ~quick s bodies;
  Printf.printf "merged %s into %s\n" (String.concat ", " s.keys) path;
  let candidate = s.metrics (Json.Obj (List.combine s.keys bodies)) in
  let results = check s ~quick ~baseline:None ~candidate in
  if results <> [] then print_table results;
  match List.length (List.filter failed results) with
  | 0 -> ()
  | n -> failwith (Printf.sprintf "%s bench: %d gate(s) failed" s.name n)

(* bench_compare.exe; returns the exit code. *)
let compare_files sections ~baseline ~candidate =
  match (load baseline, load candidate) with
  | exception (Sys_error e | Failure e) ->
    prerr_endline ("bench_compare: " ^ e);
    2
  | base, cand ->
    let results = compare sections ~baseline:base ~candidate:cand in
    print_table results;
    (match List.length (List.filter failed results) with
    | 0 -> Printf.printf "\nno failures against %s\n" baseline
    | n -> Printf.printf "\n%d failure(s) against %s\n" n baseline);
    if List.exists failed results then 1 else 0
