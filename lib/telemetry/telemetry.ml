(* A registry belongs to one domain: its cells and window rings are plain
   hashtables that recording updates in place.  A component keeps its hot
   counters in plain ints instead, and readers merge them in through the
   source it registered. *)

(* Log-bucketed sketch of [n] bins: bin i covers [2^((i-o)/s),
   2^((i-o+1)/s)) with s = n/32 bins per octave and origin o = 3n/4 (the
   bin of 1.0), so both sizes used here cover 2^-24 .. 2^8.  Run totals
   keep 256 bins, windows 128.  Percentiles are read back as the bin's
   geometric midpoint (relative error at most 2^(16/n) - 1: ~4.4% and
   ~9.1%) clamped to the exact observed min/max, so no samples are ever
   stored. *)
let total_bins = 256
let window_bins = 128

let bucket_of n v =
  if v <= 0.0 then 0
  else begin
    let i =
      (3 * n / 4) + int_of_float (Float.floor (Float.log2 v *. float_of_int (n / 32)))
    in
    if i < 0 then 0 else if i >= n then n - 1 else i
  end

let bucket_mid n i =
  Float.pow 2.0 ((float_of_int (i - (3 * n / 4)) +. 0.5) /. float_of_int (n / 32))

(* Observations, or a counter window's calls: [count] and [sum] always,
   [min]/[max] and the bins only for observations (a counter window keeps
   no bins). *)
type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let hist_make n =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_buckets = Array.make n 0;
  }

let hist_clear h =
  h.h_count <- 0;
  h.h_sum <- 0.0;
  h.h_min <- Float.infinity;
  h.h_max <- Float.neg_infinity;
  Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0

let hist_record h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = h.h_buckets in
  let i = bucket_of (Array.length b) v in
  b.(i) <- b.(i) + 1

let hist_merge_into dst src =
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum +. src.h_sum;
  if src.h_min < dst.h_min then dst.h_min <- src.h_min;
  if src.h_max > dst.h_max then dst.h_max <- src.h_max;
  for i = 0 to Array.length src.h_buckets - 1 do
    dst.h_buckets.(i) <- dst.h_buckets.(i) + src.h_buckets.(i)
  done

(* The [q]-quantile: exact min/max at the ends, else the midpoint of the
   bin holding the ceil(q * count)-th observation.  0 when there is
   nothing to rank. *)
let hist_quantile h q =
  let n = Array.length h.h_buckets in
  if h.h_count = 0 || n = 0 then 0.0
  else if q <= 0.0 then h.h_min
  else if q >= 1.0 then h.h_max
  else begin
    let target = Float.max 1.0 (Float.ceil (q *. float_of_int h.h_count)) in
    let cum = ref 0 in
    let found = ref (n - 1) in
    let i = ref 0 in
    let continue = ref true in
    while !continue && !i < n do
      cum := !cum + h.h_buckets.(!i);
      if float_of_int !cum >= target then begin
        found := !i;
        continue := false
      end;
      i := !i + 1
    done;
    Float.min h.h_max (Float.max h.h_min (bucket_mid n !found))
  end

(* The value sits in a float-only record, which is stored flat, so
   setting a gauge boxes no float. *)
type gauge = { mutable v : float }
type cell = Counter of int ref | Gauge of gauge | Hist of hist

(* Slot [i mod windows] of a windowed metric's ring holds virtual window
   [i]; [index] is -1 until the slot is first used. *)
type window = { mutable index : int; w : hist }

(* A component's own counters and gauges, read out by name whenever the
   registry is read. *)
type source = {
  read : counter:(string -> int -> unit) -> gauge:(string -> float -> unit) -> unit;
  zero : unit -> unit;
}

type t = {
  cells : (string, cell) Hashtbl.t;
  rings : (string, window array) Hashtbl.t; (* empty without windows *)
  mutable stack : (string * float) list; (* open spans: name, start time *)
  now : unit -> float;
  windows : int; (* per windowed metric; 0 = keep run totals only *)
  mutable clock : unit -> float; (* virtual time that places a window *)
  mutable sources : source list; (* newest first *)
}

let create ?now ?(windows = 0) ?(clock = fun () -> 0.0) () =
  if windows < 0 then invalid_arg "Telemetry.create: windows < 0";
  let now = match now with Some f -> f | None -> Unix.gettimeofday in
  {
    cells = Hashtbl.create 64;
    rings = Hashtbl.create 16;
    stack = [];
    now;
    windows;
    clock;
    sources = [];
  }

let default = create ()

let kind_error name got =
  invalid_arg
    (Printf.sprintf "Telemetry: metric %S already registered as a %s" name got)

(* The cell for [name] in [cells], registered on first use. *)
let counter_cell cells name =
  match Hashtbl.find_opt cells name with
  | Some (Counter r) -> r
  | Some (Gauge _) -> kind_error name "gauge"
  | Some (Hist _) -> kind_error name "histogram"
  | None ->
    let r = ref 0 in
    Hashtbl.add cells name (Counter r);
    r

let gauge_cell cells name =
  match Hashtbl.find_opt cells name with
  | Some (Gauge g) -> g
  | Some (Counter _) -> kind_error name "counter"
  | Some (Hist _) -> kind_error name "histogram"
  | None ->
    let g = { v = 0.0 } in
    Hashtbl.add cells name (Gauge g);
    g

let incr t ?(by = 1) name =
  let r = counter_cell t.cells name in
  r := !r + by

let set_gauge t name v = (gauge_cell t.cells name).v <- v
let source t ~read ~zero = t.sources <- { read; zero } :: t.sources

let observe t name v =
  match Hashtbl.find_opt t.cells name with
  | Some (Hist h) -> hist_record h v
  | Some (Counter _) -> kind_error name "counter"
  | Some (Gauge _) -> kind_error name "gauge"
  | None ->
    let h = hist_make total_bins in
    hist_record h v;
    Hashtbl.add t.cells name (Hist h)

(* -- Windows ---------------------------------------------------------------- *)

let window_s = 1.0
let set_clock t f = if t.windows > 0 then t.clock <- f
let clock t = t.clock ()

(* The window of [name] covering virtual time [at] (default: the registry
   clock), cleared first if its ring slot held an older window.  A
   counter's windows keep no bins. *)
let window_at t ~bins ?at name =
  let at = match at with Some x -> x | None -> t.clock () in
  let ring =
    match Hashtbl.find_opt t.rings name with
    | Some r -> r
    | None ->
      let r = Array.init t.windows (fun _ -> { index = -1; w = hist_make bins }) in
      Hashtbl.add t.rings name r;
      r
  in
  let index = max 0 (int_of_float (Float.floor (at /. window_s))) in
  let slot = ring.(index mod t.windows) in
  if slot.index <> index then begin
    slot.index <- index;
    hist_clear slot.w
  end;
  slot.w

let add t ?at ?(by = 1) name =
  incr t ~by name;
  if t.windows > 0 then begin
    let h = window_at t ~bins:0 ?at name in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. float_of_int by
  end

let sample t ?at name v =
  observe t name v;
  if t.windows > 0 then hist_record (window_at t ~bins:window_bins ?at name) v

(* -- Spans ---------------------------------------------------------------- *)

let span_begin t name = t.stack <- (name, t.now ()) :: t.stack

let span_end t =
  match t.stack with
  | [] -> invalid_arg "Telemetry.span_end: no open span"
  | (name, t0) :: rest ->
    t.stack <- rest;
    observe t name (t.now () -. t0)

let with_span t name f =
  span_begin t name;
  match f () with
  | v ->
    span_end t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    span_end t;
    Printexc.raise_with_backtrace e bt

(* -- Reads ----------------------------------------------------------------- *)

(* The sources' readings, as cells: each counter summed over the sources
   that emit it, each gauge as the newest source that emits it has it.
   Each name is also looked up as its kind in the registry's own cells,
   which raises on a clash. *)
let read_sources t =
  let s = Hashtbl.create 64 in
  let claim find name =
    if Hashtbl.mem t.cells name then ignore (find t.cells name);
    find s name
  in
  let counter name v =
    let r = claim counter_cell name in
    r := !r + v
  in
  let gauge name v =
    let fresh = not (Hashtbl.mem s name) in
    let g = claim gauge_cell name in
    if fresh then g.v <- v
  in
  List.iter (fun src -> src.read ~counter ~gauge) t.sources;
  s

(* The sources' cells, then the registry's: a counter sums both, and a
   gauge a source emits wins over the cell. *)
let all_cells t = [ read_sources t; t.cells ]

let counter_in tables name =
  List.fold_left
    (fun acc cells ->
      match Hashtbl.find_opt cells name with
      | Some (Counter r) -> acc + !r
      | _ -> acc)
    0 tables

let gauge_in tables name =
  List.find_map
    (fun cells ->
      match Hashtbl.find_opt cells name with Some (Gauge g) -> Some g.v | _ -> None)
    tables

let counter_value t name = counter_in (all_cells t) name
let gauge_value t name = gauge_in (all_cells t) name

let hist_of t name =
  match Hashtbl.find_opt t.cells name with Some (Hist h) -> Some h | _ -> None

type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* A counter window has a count and a sum but no observed values, so its
   min, max and percentiles read 0, as do an empty histogram's. *)
let summary_of_hist h =
  let observed = h.h_count > 0 && Array.length h.h_buckets > 0 in
  let value v = if observed then v else 0.0 in
  {
    count = h.h_count;
    sum = h.h_sum;
    mean = (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count);
    min = value h.h_min;
    max = value h.h_max;
    p50 = hist_quantile h 0.5;
    p90 = hist_quantile h 0.9;
    p99 = hist_quantile h 0.99;
  }

let hist_summary t name = Option.map summary_of_hist (hist_of t name)

let hist_percentile t name p =
  match hist_of t name with
  | None -> 0.0
  | Some h ->
    (* NaN would sail through both range tests and silently return the
       top bucket; reject it instead of guessing. *)
    if Float.is_nan p then invalid_arg "Telemetry.hist_percentile: NaN percentile";
    hist_quantile h (p /. 100.0)

let names_of_kind tables ~keep =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun cells ->
      Hashtbl.iter (fun name cell -> if keep cell then Hashtbl.replace seen name ()) cells)
    tables;
  Hashtbl.fold (fun name () acc -> name :: acc) seen []
  |> List.sort compare

let counters t =
  let tables = all_cells t in
  names_of_kind tables ~keep:(function Counter _ -> true | _ -> false)
  |> List.map (fun name -> (name, counter_in tables name))

let gauges t =
  let tables = all_cells t in
  names_of_kind tables ~keep:(function Gauge _ -> true | _ -> false)
  |> List.filter_map (fun name ->
         Option.map (fun v -> (name, v)) (gauge_in tables name))

let histograms t =
  names_of_kind [ t.cells ] ~keep:(function Hist _ -> true | _ -> false)
  |> List.filter_map (fun name ->
         Option.map (fun s -> (name, s)) (hist_summary t name))

let reset t =
  Hashtbl.reset t.cells;
  Hashtbl.reset t.rings;
  t.stack <- [];
  List.iter (fun s -> s.zero ()) t.sources

(* -- Window reads ------------------------------------------------------------ *)

let windowed t =
  Hashtbl.fold
    (fun name ring acc ->
      (name, if Array.length ring.(0).w.h_buckets = 0 then `Counter else `Dist) :: acc)
    t.rings []
  |> List.sort compare

(* [name]'s used windows by index, ascending: the newest [last] of them,
   or all.  A ring holds at most [windows] indices, one per slot. *)
let kept_windows ?last t name =
  let used =
    match Hashtbl.find_opt t.rings name with
    | None -> []
    | Some ring ->
      Array.fold_left
        (fun acc slot -> if slot.index >= 0 then (slot.index, slot.w) :: acc else acc)
        [] ring
      |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  in
  let keep = match last with Some k -> Int.min k t.windows | None -> t.windows in
  let skip = List.length used - keep in
  List.filteri (fun i _ -> i >= skip) used

let windows ?last t name =
  List.map (fun (i, h) -> (i, summary_of_hist h)) (kept_windows ?last t name)

let merged_last ?last t name =
  let ws = kept_windows ?last t name in
  let bins = match ws with (_, h) :: _ -> Array.length h.h_buckets | [] -> 0 in
  let m = hist_make bins in
  List.iter (fun (_, h) -> hist_merge_into m h) ws;
  m

let aggregate ?last t name = summary_of_hist (merged_last ?last t name)

let quantile ?last t name q =
  if Float.is_nan q || q < 0.0 || q > 1.0 then
    invalid_arg "Telemetry.quantile: q outside [0, 1]";
  hist_quantile (merged_last ?last t name) q

(* -- Dumps ---------------------------------------------------------------- *)

let json_of_summary s =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.count));
      ("sum", Json.Num s.sum);
      ("mean", Json.Num s.mean);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("p50", Json.Num s.p50);
      ("p90", Json.Num s.p90);
      ("p99", Json.Num s.p99);
    ]

let json_of t =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (counters t))
      );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (gauges t)));
      ( "histograms",
        Json.Obj (List.map (fun (k, s) -> (k, json_of_summary s)) (histograms t))
      );
    ]

let dump_json t = Json.to_string ~pretty:true (json_of t)

let write_json t ~path =
  let oc = open_out path in
  output_string oc (dump_json t);
  output_char oc '\n';
  close_out oc

(* -- Series dumps ----------------------------------------------------------- *)

(* Sorted by name, windows ascending, no wall-clock field: same-seed
   replays dump byte-identical series. *)
let series_json t =
  let num_int i = Json.Num (float_of_int i) in
  let window_json dist (i, s) =
    Json.Obj
      ([ ("index", num_int i); ("count", num_int s.count); ("sum", Json.Num s.sum) ]
      @
      if dist then
        [
          ("min", Json.Num s.min);
          ("max", Json.Num s.max);
          ("p50", Json.Num s.p50);
          ("p90", Json.Num s.p90);
          ("p99", Json.Num s.p99);
        ]
      else [])
  in
  let series (name, kind) =
    let dist = kind = `Dist in
    ( name,
      Json.Obj
        [
          ("kind", Json.Str (if dist then "dist" else "counter"));
          ("windows", Json.Arr (List.map (window_json dist) (windows t name)));
        ] )
  in
  Json.Obj
    [
      ("bucket_s", Json.Num window_s);
      ("capacity", num_int t.windows);
      ("series", Json.Obj (List.map series (windowed t)));
    ]

let write_series t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (series_json t));
  output_char oc '\n';
  close_out oc

type dump = {
  d_bucket_s : float;
  d_capacity : int;
  d_series : (string * [ `Counter | `Dist ] * (int * hist_summary) list) list;
}

(* Every integer up to 2^53 is exact as a float and fits an int. *)
let exact_int lo f = Float.is_integer f && f >= lo && f <= 0x1p53

let dump_of_json json =
  let ( let* ) = Result.bind in
  (* Numeric field [key] of [obj], which must pass [ok]; [default] when
     it is missing. *)
  let field ?default ~what ok obj key =
    match (Json.member key obj, default) with
    | Some (Json.Num f), _ when ok f -> Ok f
    | None, Some d -> Ok d
    | None, None -> Error (Printf.sprintf "missing field %S" key)
    | Some _, _ -> Error (Printf.sprintf "field %S is not %s" key what)
  in
  let number ?default = field ?default ~what:"a number" (fun _ -> true) in
  let index = field ~what:"an integer in [0, 2^53]" (exact_int 0.0) in
  let window_of obj =
    let* i = index obj "index" in
    let* count = index obj "count" in
    let* sum = number obj "sum" in
    let* min = number ~default:0.0 obj "min" in
    let* max = number ~default:0.0 obj "max" in
    let* p50 = number ~default:0.0 obj "p50" in
    let* p90 = number ~default:0.0 obj "p90" in
    let* p99 = number ~default:0.0 obj "p99" in
    let count = int_of_float count in
    let mean = if count = 0 then 0.0 else sum /. float_of_int count in
    Ok (int_of_float i, { count; sum; mean; min; max; p50; p90; p99 })
  in
  let rec map_result f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)
  in
  let series_of (name, j) =
    let parsed =
      let* kind =
        match (j, Json.member "kind" j) with
        | Json.Obj _, Some (Json.Str "dist") -> Ok `Dist
        | Json.Obj _, (Some (Json.Str "counter") | None) -> Ok `Counter
        | Json.Obj _, Some _ -> Error "bad kind"
        | _ -> Error "not an object"
      in
      let* ws =
        match Json.member "windows" j with
        | Some (Json.Arr items) -> map_result window_of items
        | _ -> Error "missing windows"
      in
      Ok (name, kind, ws)
    in
    Result.map_error (Printf.sprintf "series %S: %s" name) parsed
  in
  match json with
  | Json.Obj _ ->
    let* bucket_s =
      field ~default:1.0 ~what:"a finite number > 0"
        (fun f -> Float.is_finite f && f > 0.0)
        json "bucket_s"
    in
    let* capacity =
      field ~default:128.0 ~what:"an integer in [1, 2^53]" (exact_int 1.0) json
        "capacity"
    in
    let* series =
      match Json.member "series" json with
      | Some (Json.Obj fields) -> map_result series_of fields
      | None -> Ok []
      | Some _ -> Error "field \"series\" is not an object"
    in
    Ok { d_bucket_s = bucket_s; d_capacity = int_of_float capacity; d_series = series }
  | _ -> Error "series dump is not a JSON object"

let dump_of_string s = Result.bind (Json.of_string s) dump_of_json
