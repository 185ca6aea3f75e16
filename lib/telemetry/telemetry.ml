(* Metric cells live in per-domain shards (Stdx.Sharded): the hot path
   writes the calling domain's cells without synchronization and readers
   merge every shard, so recording stays allocation-cheap and race-free
   under Stdx.Domain_pool fan-out. *)

(* Log-bucketed histogram: bucket i covers [2^((i-origin)/sub),
   2^((i-origin+1)/sub)), i.e. [sub] buckets per octave.  Percentiles are
   read back as the bucket's geometric midpoint (relative error at most
   2^(1/(2*sub)) - 1 ~= 4.4%) clamped to the exact observed min/max, so no
   samples are ever stored. *)
let sub_buckets = 8
let n_buckets = 256
let origin = 192 (* bucket index of value 1.0; floor covers ~6e-8 .. ~2e2 *)

let bucket_of v =
  if v <= 0.0 then 0
  else begin
    let i = origin + int_of_float (Float.floor (Float.log2 v *. float_of_int sub_buckets)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

let bucket_mid i =
  Float.pow 2.0 ((float_of_int (i - origin) +. 0.5) /. float_of_int sub_buckets)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let hist_make () =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    h_buckets = Array.make n_buckets 0;
  }

let hist_record h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = h.h_buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1

let hist_merge_into dst src =
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum +. src.h_sum;
  if src.h_min < dst.h_min then dst.h_min <- src.h_min;
  if src.h_max > dst.h_max then dst.h_max <- src.h_max;
  for i = 0 to n_buckets - 1 do
    dst.h_buckets.(i) <- dst.h_buckets.(i) + src.h_buckets.(i)
  done

let hist_percentile_of h p =
  (* NaN would sail through both range tests below and silently return
     the top bucket; reject it instead of guessing. *)
  if Float.is_nan p then invalid_arg "Telemetry.hist_percentile: NaN percentile";
  if h.h_count = 0 then 0.0
  else if p <= 0.0 then h.h_min
  else if p >= 100.0 then h.h_max
  else begin
    let target =
      Float.max 1.0 (Float.ceil (p /. 100.0 *. float_of_int h.h_count))
    in
    let cum = ref 0 in
    let found = ref (n_buckets - 1) in
    let i = ref 0 in
    let continue = ref true in
    while !continue && !i < n_buckets do
      cum := !cum + h.h_buckets.(!i);
      if float_of_int !cum >= target then begin
        found := !i;
        continue := false
      end;
      i := !i + 1
    done;
    Float.min h.h_max (Float.max h.h_min (bucket_mid !found))
  end

type gauge_cell = { mutable g_seq : int; mutable g_val : float }
type cell = Counter of int ref | Gauge of gauge_cell | Hist of hist

type shard = {
  cells : (string, cell) Hashtbl.t;
  mutable stack : (string * float) list; (* open spans: name, start time *)
  mutable generation : int; (* bumped by [reset], which drops every cell *)
}

type t = {
  shards : shard Stdx.Sharded.t;
  seq : int Atomic.t; (* global write order for gauge last-write-wins *)
  now : unit -> float;
}

let create ?now () =
  let now = match now with Some f -> f | None -> Unix.gettimeofday in
  {
    shards =
      Stdx.Sharded.create
        ~init:(fun () -> { cells = Hashtbl.create 64; stack = []; generation = 0 })
        ();
    seq = Atomic.make 0;
    now;
  }

let default = create ()

let kind_error name got =
  invalid_arg
    (Printf.sprintf "Telemetry: metric %S already registered as a %s" name got)

let my_shard t = Stdx.Sharded.get t.shards

(* The shard's cell for [name], registered on first use. *)
let counter_cell s name =
  match Hashtbl.find_opt s.cells name with
  | Some (Counter r) -> r
  | Some (Gauge _) -> kind_error name "gauge"
  | Some (Hist _) -> kind_error name "histogram"
  | None ->
    let r = ref 0 in
    Hashtbl.add s.cells name (Counter r);
    r

let gauge_cell s name =
  match Hashtbl.find_opt s.cells name with
  | Some (Gauge g) -> g
  | Some (Counter _) -> kind_error name "counter"
  | Some (Hist _) -> kind_error name "histogram"
  | None ->
    let g = { g_seq = 0; g_val = 0.0 } in
    Hashtbl.add s.cells name (Gauge g);
    g

let incr t ?(by = 1) name =
  let r = counter_cell (my_shard t) name in
  r := !r + by

let set_gauge t name v =
  let s = my_shard t in
  let seq = Atomic.fetch_and_add t.seq 1 in
  let g = gauge_cell s name in
  g.g_seq <- seq;
  g.g_val <- v

(* -- Handles --------------------------------------------------------------
   A handle caches the cell it last resolved with the shard and generation
   it came from.  The cache is one immutable record behind one mutable
   field, so a handle shared across domains always reads a consistent
   (shard, cell) pair: a domain whose shard does not match re-resolves
   its own cell, and no domain ever writes another's. *)

type 'a cached = { shard : shard; generation : int; cell : 'a }
type 'a handle = { reg : t; name : string; mutable cached : 'a cached }
type counter = int ref handle
type gauge = gauge_cell handle

(* No domain's shard, so a fresh handle resolves on its first record. *)
let unresolved = { cells = Hashtbl.create 1; stack = []; generation = 0 }

let handle reg name cell =
  { reg; name; cached = { shard = unresolved; generation = 0; cell } }

let counter t name = handle t name (ref 0)
let gauge t name = handle t name { g_seq = 0; g_val = 0.0 }

let[@inline] resolve h s find =
  let c = h.cached in
  if c.shard == s && c.generation = s.generation then c.cell
  else begin
    let cell = find s h.name in
    h.cached <- { shard = s; generation = s.generation; cell };
    cell
  end

let bump ?(by = 1) h =
  let r = resolve h (my_shard h.reg) counter_cell in
  r := !r + by

let set h v =
  let s = my_shard h.reg in
  let seq = Atomic.fetch_and_add h.reg.seq 1 in
  let g = resolve h s gauge_cell in
  g.g_seq <- seq;
  g.g_val <- v

let observe t name v =
  let s = my_shard t in
  match Hashtbl.find_opt s.cells name with
  | Some (Hist h) -> hist_record h v
  | Some (Counter _) -> kind_error name "counter"
  | Some (Gauge _) -> kind_error name "gauge"
  | None ->
    let h = hist_make () in
    hist_record h v;
    Hashtbl.add s.cells name (Hist h)

(* -- Spans ---------------------------------------------------------------- *)

let span_begin t name =
  let s = my_shard t in
  s.stack <- (name, t.now ()) :: s.stack

let span_end t =
  let s = my_shard t in
  match s.stack with
  | [] -> invalid_arg "Telemetry.span_end: no open span"
  | (name, t0) :: rest ->
    s.stack <- rest;
    observe t name (t.now () -. t0)

let with_span t name f =
  span_begin t name;
  Fun.protect ~finally:(fun () -> span_end t) f

(* -- Merged reads --------------------------------------------------------- *)

let counter_value t name =
  Stdx.Sharded.fold t.shards ~init:0 ~f:(fun acc s ->
      match Hashtbl.find_opt s.cells name with
      | Some (Counter r) -> acc + !r
      | _ -> acc)

let gauge_value t name =
  Stdx.Sharded.fold t.shards ~init:None ~f:(fun acc s ->
      match Hashtbl.find_opt s.cells name with
      | Some (Gauge g) -> (
        match acc with
        | Some (seq, _) when seq >= g.g_seq -> acc
        | _ -> Some (g.g_seq, g.g_val))
      | _ -> acc)
  |> Option.map snd

let merged_hist t name =
  Stdx.Sharded.fold t.shards ~init:None ~f:(fun acc s ->
      match Hashtbl.find_opt s.cells name with
      | Some (Hist h) ->
        let dst = match acc with Some d -> d | None -> hist_make () in
        hist_merge_into dst h;
        Some dst
      | _ -> acc)

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

let summary_of_hist h =
  {
    count = h.h_count;
    sum = h.h_sum;
    mean = (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count);
    min = (if h.h_count = 0 then 0.0 else h.h_min);
    max = (if h.h_count = 0 then 0.0 else h.h_max);
    p50 = hist_percentile_of h 50.0;
    p90 = hist_percentile_of h 90.0;
    p99 = hist_percentile_of h 99.0;
  }

let hist_summary t name = Option.map summary_of_hist (merged_hist t name)

let hist_percentile t name p =
  match merged_hist t name with
  | None -> 0.0
  | Some h -> hist_percentile_of h p

let names_of_kind t ~keep =
  let seen = Hashtbl.create 64 in
  Stdx.Sharded.iter t.shards ~f:(fun s ->
      Hashtbl.iter
        (fun name cell -> if keep cell then Hashtbl.replace seen name ())
        s.cells);
  Hashtbl.fold (fun name () acc -> name :: acc) seen []
  |> List.sort compare

let counters t =
  names_of_kind t ~keep:(function Counter _ -> true | _ -> false)
  |> List.map (fun name -> (name, counter_value t name))

let gauges t =
  names_of_kind t ~keep:(function Gauge _ -> true | _ -> false)
  |> List.filter_map (fun name ->
         Option.map (fun v -> (name, v)) (gauge_value t name))

let histograms t =
  names_of_kind t ~keep:(function Hist _ -> true | _ -> false)
  |> List.filter_map (fun name ->
         Option.map (fun s -> (name, s)) (hist_summary t name))

let reset t =
  Stdx.Sharded.iter t.shards ~f:(fun s ->
      Hashtbl.reset s.cells;
      s.stack <- [];
      s.generation <- s.generation + 1)

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

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* (promtext exposition
   format); registry keys are free-form strings, so every other character
   collapses to '_' and a leading digit gets a '_' prefix. *)
let prom_name name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Label values may contain anything, but backslash, double-quote and
   newline must be escaped per the exposition format. *)
let prom_escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let dump_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (counters t);
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %g\n" n n v))
    (gauges t);
  List.iter
    (fun (name, s) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %g\n" n (prom_escape_label q)
               v))
        [ ("0.5", s.p50); ("0.9", s.p90); ("0.99", s.p99) ];
      Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" n s.sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.count))
    (histograms t);
  Buffer.contents buf
