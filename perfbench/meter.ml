(* Measurement helpers shared by the workloads: a nanosecond clock,
   per-layer aggregates, sample statistics, output digests, a bounded
   span recorder and the result printer. *)

module Trace = Activermt_telemetry.Trace

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

(* One layer's totals over the calls the benchmark made into it.  All
   fields are ints so that recording allocates nothing. *)
type acc = { mutable calls : int; mutable ns : int; mutable words : int }

let acc () = { calls = 0; ns = 0; words = 0 }

let add a ~ns ~words =
  a.calls <- a.calls + 1;
  a.ns <- a.ns + ns;
  a.words <- a.words + words

let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

(* A human-readable report line: label, value, unit, note. *)
type line = string * string * string * string

let num label v unit_ note : line = (label, fmt v, unit_, note)

(* ---- host speed reference ----
   On a shared host the CPU's speed can drift by up to 2x over seconds,
   and code with a large instruction footprint slows the most.  Timed
   regions are cut into slices, and after each slice the benchmark times
   this fixed kernel, which uses only the standard library: string
   formatting, a string-keyed map, hashtables, buffers and sorting, so
   its code footprint is large like the simulator's.  Scaling a slice's
   duration by nominal / measured kernel time removes most of the host's
   drift; rates and set-up times are reported at the kernel's nominal
   speed. *)

let reference_nominal_ns = 700_000.0

module String_map = Map.Make (String)

let reference_sink = ref 0

(* Minor words the kernel has allocated, to be taken out of a workload's
   allocation count. *)
let reference_words = ref 0

let reference_ns () =
  let w0 = minor_words () in
  let t0 = now_ns () in
  let m = ref String_map.empty and acc = ref 0 and buf = Buffer.create 256 in
  let tbl = Hashtbl.create 64 in
  for i = 0 to 599 do
    let k = Printf.sprintf "k%d.%s" (i land 127) (if i land 1 = 0 then "a" else "b") in
    m := String_map.add k i !m;
    (match String_map.find_opt (Printf.sprintf "k%d.a" ((i * 7) land 127)) !m with
    | Some v -> acc := !acc + v
    | None -> ());
    Hashtbl.replace tbl (i land 63) k;
    Buffer.clear buf;
    Buffer.add_string buf (Option.value ~default:"" (Hashtbl.find_opt tbl ((i * 5) land 63)));
    Buffer.add_string buf (string_of_float (float_of_int i /. 7.0));
    acc := !acc + Buffer.length buf;
    if i land 63 = 0 then begin
      let l = List.init 32 (fun j -> ((j * 7919) + i) land 255) in
      acc := !acc + List.hd (List.sort compare l)
    end
  done;
  reference_sink := !acc;
  let t1 = now_ns () in
  reference_words := !reference_words + (minor_words () - w0);
  float_of_int (t1 - t0)

(* Nominal-speed duration of [ns] measured next to a kernel run of
   [ref_ns]. *)
let normalize ~ns ~ref_ns = ns *. reference_nominal_ns /. ref_ns

(* ---- sample statistics ---- *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median a = pct (sorted a) 50.0

(* The highest standard percentile with at least ten samples beyond it,
   or [None] when there are too few samples for any. *)
let tail_level n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Growable float buffer for per-call latency samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* ---- output digests ---- *)

let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hex d = Printf.sprintf "%016x" (d land max_int)

(* ---- drift: progress checkpoints over the timed region ---- *)

type progress = { times : samples; units : samples }

let progress () = { times = samples (); units = samples () }
let checkpoint p ~elapsed_ns ~units =
  push p.times (float_of_int elapsed_ns);
  push p.units (float_of_int units)

(* Rate over the first and the last tenth of the timed region. *)
let deciles p =
  let n = p.times.len in
  if n < 2 then (0.0, 0.0)
  else
    let total = p.times.data.(n - 1) in
    let units_at t =
      let i = ref 0 in
      while !i < n - 1 && p.times.data.(!i) < t do incr i done;
      p.units.data.(!i), p.times.data.(!i)
    in
    let rate (u0, t0) (u1, t1) = if t1 > t0 then (u1 -. u0) /. ((t1 -. t0) *. 1e-9) else 0.0 in
    let start = (p.units.data.(0), p.times.data.(0)) in
    let last = (p.units.data.(n - 1), total) in
    (rate start (units_at (0.1 *. total)), rate (units_at (0.9 *. total)) last)

(* ---- timed regions ----
   A timed region is cut into slices of at least [slice_ns] of work.
   After each slice the reference kernel runs (outside the work time) and
   the slice's duration is normalized; the major heap size is sampled at
   the same points. *)

let slice_ns = 20_000_000

type clock = {
  mutable slice_start : int;
  mutable slice_units : int;  (** units done when the slice started *)
  mutable work_ns : int;  (** measured work time of the closed slices *)
  mutable norm_ns : float;  (** the same at the kernel's nominal speed *)
  slice_rates : samples;  (** normalized units/s per slice *)
  drift : progress;  (** (normalized work time, units) at every slice end *)
  mutable peak_heap_words : int;
}

let clock () =
  Gc.compact ();
  {
    slice_start = now_ns ();
    slice_units = 0;
    work_ns = 0;
    norm_ns = 0.0;
    slice_rates = samples ();
    drift = progress ();
    peak_heap_words = (Gc.quick_stat ()).Gc.heap_words;
  }

(* Close the current slice; returns its speed factor (nominal-speed time
   per measured time). *)
let close_slice c ~now ~units =
  let dt = now - c.slice_start in
  let ref_ns = reference_ns () in
  let norm = normalize ~ns:(float_of_int dt) ~ref_ns in
  c.work_ns <- c.work_ns + dt;
  c.norm_ns <- c.norm_ns +. norm;
  if norm > 0.0 then push c.slice_rates (float_of_int (units - c.slice_units) /. (norm *. 1e-9));
  c.slice_units <- units;
  checkpoint c.drift ~elapsed_ns:(int_of_float c.norm_ns) ~units;
  let heap = (Gc.quick_stat ()).Gc.heap_words in
  if heap > c.peak_heap_words then c.peak_heap_words <- heap;
  c.slice_start <- now_ns ();
  if dt = 0 then 1.0 else norm /. float_of_int dt

(* Work time so far; closes the slice when it is long enough.  [units]
   counts from the start of the region. *)
let tick c ~units =
  let now = now_ns () in
  if now - c.slice_start < slice_ns then c.work_ns + (now - c.slice_start)
  else begin
    ignore (close_slice c ~now ~units);
    c.work_ns
  end

let finish c ~units = ignore (close_slice c ~now:(now_ns ()) ~units)

(* The clock's speed factor: nominal-speed time per measured time. *)
let speed c = if c.work_ns = 0 then 1.0 else c.norm_ns /. float_of_int c.work_ns

let spread_line label c unit_ : line =
  let w = sorted (to_array c.slice_rates) in
  ( label,
    Printf.sprintf "%s/%s/%s" (fmt (pct w 25.)) (fmt (pct w 50.)) (fmt (pct w 75.)),
    unit_,
    Printf.sprintf "p25/p50/p75 over %d slices" (Array.length w) )

(* Live major-heap words after a full collection, in MB. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let peak_heap_mb c = float_of_int (c.peak_heap_words * (Sys.word_size / 8)) /. 1e6

(* A probe's measured ns at the kernel's nominal speed, with the kernel
   timed right after it. *)
let normalized_probe ns = normalize ~ns ~ref_ns:(reference_ns ())

(* ---- bounded span sample, written as Chrome trace-event JSON ---- *)

type spans = { tracer : Trace.t; mutable root : Trace.ctx option; mutable windows : int }

let span_windows = 64

let spans () =
  let tracer = Trace.create ~capacity:20_000 () in
  Trace.set_clock tracer (fun () -> float_of_int (now_ns ()) *. 1e-9);
  { tracer; root = None; windows = 0 }

(* Open a new sampled window (a root trace) while the budget lasts. *)
let window sp name =
  if sp.windows < span_windows then begin
    sp.windows <- sp.windows + 1;
    sp.root <- Trace.start_trace sp.tracer name
  end
  else sp.root <- None

let span sp name ~t0 ~t1 =
  match sp.root with
  | None -> ()
  | Some c ->
    ignore
      (Trace.span sp.tracer c ~t_start:(float_of_int t0 *. 1e-9)
         ~t_end:(float_of_int t1 *. 1e-9) name)

let write_spans sp path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Trace.write_chrome sp.tracer path

(* ---- results ---- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The result object the benchmark prints as its last line; [metrics]
   are (name, unit, value). *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit_, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

let print_line ((label, value, unit_, note) : line) =
  Printf.printf "  %-34s %16s %-14s %s\n" label value unit_ note

(* What a workload run hands back to [Main]. *)
type result = {
  problems : string list;  (** failed output checks *)
  attempted : int;
  failed : int;
  report : line list;
  layers : (string * float) list;  (** per-layer metrics, traced runs *)
  e2e : (string * float) list;  (** end-to-end metrics, untraced runs *)
}
