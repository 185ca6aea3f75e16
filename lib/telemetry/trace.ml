type ctx = { trace_id : int; span_id : int }

type event = {
  trace_id : int;
  span_id : int;
  parent_span_id : int;
  t_start : float;
  t_end : float;
  name : string;
  attrs : (string * string) list;
}

(* A tracer belongs to one domain: events are appended to one array, in
   emission order. *)
type t = {
  on : bool;
  capacity : int;
  sample : float;
  rng : Stdx.Prng.t;
  mutable clock : unit -> float;
  mutable items : event array;
  mutable len : int;
  mutable next_trace : int;
  mutable next_span : int;
  mutable n_evicted : int;
}

let mk ~on ~capacity ~sample ~seed =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    on;
    capacity;
    sample;
    rng = Stdx.Prng.create ~seed;
    clock = (fun () -> 0.0);
    items = [||];
    len = 0;
    next_trace = 1;
    next_span = 1;
    n_evicted = 0;
  }

let create ?(capacity = 65536) ?(sample = 1.0) ?(seed = 0x7ace) () =
  mk ~on:true ~capacity ~sample ~seed

let noop = mk ~on:false ~capacity:1 ~sample:0.0 ~seed:0
let enabled t = t.on
let set_clock t f = t.clock <- f
let now t = t.clock ()

(* Oldest-trace eviction: drop every event of the smallest trace id until
   at least 1/8 of the store is free again, so eviction work amortizes.
   Trace ids grow monotonically, so the smallest id is the oldest trace. *)
let evict t =
  let target = t.capacity - max 1 (t.capacity / 8) in
  while t.len > target do
    let oldest = ref max_int in
    for i = 0 to t.len - 1 do
      if t.items.(i).trace_id < !oldest then oldest := t.items.(i).trace_id
    done;
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      let ev = t.items.(i) in
      if ev.trace_id <> !oldest then begin
        t.items.(!j) <- ev;
        incr j
      end
    done;
    t.n_evicted <- t.n_evicted + (t.len - !j);
    t.len <- !j
  done

let emit t ev =
  if t.on then begin
    if t.len >= t.capacity then evict t;
    if t.len = Array.length t.items then begin
      let cap = max 64 (2 * Array.length t.items) in
      let items = Array.make (min cap t.capacity) ev in
      Array.blit t.items 0 items 0 t.len;
      t.items <- items
    end;
    t.items.(t.len) <- ev;
    t.len <- t.len + 1
  end

let fresh_span t =
  let id = t.next_span in
  t.next_span <- id + 1;
  id

let start_trace t ?(attrs = []) name =
  if not t.on then None
  else begin
    let keep =
      if t.sample >= 1.0 then true
      else if t.sample <= 0.0 then false
      else Stdx.Prng.float t.rng 1.0 < t.sample
    in
    if not keep then None
    else begin
      let trace_id = t.next_trace in
      t.next_trace <- trace_id + 1;
      let span_id = fresh_span t in
      let now = t.clock () in
      emit t
        { trace_id; span_id; parent_span_id = 0; t_start = now; t_end = now;
          name; attrs };
      Some ({ trace_id; span_id } : ctx)
    end
  end

let span t (ctx : ctx) ?(attrs = []) ~t_start ~t_end name =
  if not t.on then ctx
  else begin
    let span_id = fresh_span t in
    emit t
      { trace_id = ctx.trace_id; span_id; parent_span_id = ctx.span_id;
        t_start; t_end; name; attrs };
    ({ trace_id = ctx.trace_id; span_id } : ctx)
  end

let instant t ctx ?attrs name =
  let now = t.clock () in
  span t ctx ?attrs ~t_start:now ~t_end:now name

let with_span t (ctx : ctx option) ?attrs name f =
  match ctx with
  | None -> f None
  | Some _ when not t.on -> f None
  | Some c ->
    let span_id = fresh_span t in
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let attrs = match attrs with None -> [] | Some a -> a in
        emit t
          { trace_id = c.trace_id; span_id; parent_span_id = c.span_id;
            t_start = t0; t_end = t.clock (); name; attrs })
      (fun () -> f (Some ({ trace_id = c.trace_id; span_id } : ctx)))

let length t = t.len
let evicted t = t.n_evicted

let reset t =
  t.items <- [||];
  t.len <- 0;
  t.n_evicted <- 0

let events t = List.init t.len (Array.get t.items)

(* ---- Exporters ---- *)

let pid_of ev =
  match List.assoc_opt "switch" ev.attrs with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 0)
  | None -> 0

let chrome_json t =
  let evs = events t in
  let pids =
    List.sort_uniq compare (List.map pid_of evs)
  in
  let meta =
    List.map
      (fun p ->
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num (float_of_int p));
            ("tid", Json.Num 0.0);
            ( "args",
              Json.Obj
                [
                  ( "name",
                    Json.Str
                      (if p = 0 then "host" else Printf.sprintf "switch %d" p)
                  );
                ] );
          ])
      pids
  in
  let ev_json ev =
    Json.Obj
      [
        ("name", Json.Str ev.name);
        ("cat", Json.Str "activermt");
        ("ph", Json.Str "X");
        ("ts", Json.Num (ev.t_start *. 1e6));
        ("dur", Json.Num ((ev.t_end -. ev.t_start) *. 1e6));
        ("pid", Json.Num (float_of_int (pid_of ev)));
        ("tid", Json.Num (float_of_int ev.trace_id));
        ( "args",
          Json.Obj
            (("trace_id", Json.Num (float_of_int ev.trace_id))
            :: ("span_id", Json.Num (float_of_int ev.span_id))
            :: ("parent_span_id", Json.Num (float_of_int ev.parent_span_id))
            :: List.map (fun (k, v) -> (k, Json.Str v)) ev.attrs) );
      ]
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (meta @ List.map ev_json evs));
    ]

let dump_chrome t = Json.to_string ~pretty:true (chrome_json t)

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (dump_chrome t);
      output_char oc '\n')

let render_tree evs =
  let buf = Buffer.create 1024 in
  (* Group by trace in first-appearance order. *)
  let order = ref [] in
  let by_trace = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt by_trace ev.trace_id with
      | Some l -> l := ev :: !l
      | None ->
        Hashtbl.add by_trace ev.trace_id (ref [ ev ]);
        order := ev.trace_id :: !order)
    evs;
  List.iter
    (fun tid ->
      let evs = List.rev !(Hashtbl.find by_trace tid) in
      let present = Hashtbl.create 16 in
      List.iter (fun ev -> Hashtbl.replace present ev.span_id ()) evs;
      let children = Hashtbl.create 16 in
      let roots = ref [] in
      List.iter
        (fun ev ->
          if ev.parent_span_id <> 0 && Hashtbl.mem present ev.parent_span_id
          then begin
            let l =
              match Hashtbl.find_opt children ev.parent_span_id with
              | Some l -> l
              | None ->
                let l = ref [] in
                Hashtbl.add children ev.parent_span_id l;
                l
            in
            l := ev :: !l
          end
          else roots := ev :: !roots)
        evs;
      Buffer.add_string buf
        (Printf.sprintf "trace %d — %d events\n" tid (List.length evs));
      let line indent ev =
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_string buf ev.name;
        Buffer.add_string buf (Printf.sprintf " @%.6f" ev.t_start);
        if ev.t_end > ev.t_start then
          Buffer.add_string buf
            (Printf.sprintf " +%.6f" (ev.t_end -. ev.t_start));
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%s" k v))
          ev.attrs;
        Buffer.add_char buf '\n'
      in
      let rec walk indent ev =
        line indent ev;
        match Hashtbl.find_opt children ev.span_id with
        | None -> ()
        | Some l -> List.iter (walk (indent + 2)) (List.rev !l)
      in
      List.iter (walk 2) (List.rev !roots))
    (List.rev !order);
  Buffer.contents buf
