module Telemetry = Activermt_telemetry.Telemetry

(* A heap cell: a handler and its argument.  The argument's type is
   existential, so a lane's event that finds no slot waits in the heap
   with its lane's handler, and a thunk is [(thunk, ())]. *)
type event = Call : ('a -> unit) * 'a -> event

(* A free heap cell holds [idle], so the heap keeps no fired event alive. *)
let idle = Call (ignore, ())

(* The queue has two parts, and the next event is the least (time, seq)
   over both.

   - A binary min-heap on (time, seq) held in parallel arrays, so
     ordering two events reads an unboxed float and an int, and neither a
     push nor a pop allocates.  An event stays in one cell of [events]
     from push to pop; the heap moves only the cell's index ([cells]), so
     sifts write no pointers and pay no write barrier.  Sifts move a hole
     rather than swapping.  [cells.(size ..)] holds the free cells.
   - Lanes: FIFOs, each with a fixed delay and handler.  A lane's events
     are pushed from a clock that never goes back, with one delay, so
     they arrive in (time, seq) order (IEEE addition is monotone and seqs
     only grow) and its head is its least event.  At most [n_slots]
     lanes are bound at once, so finding the next event reads at most
     that many heads besides the heap's top; a push onto an unbound lane
     binds it to a new slot, or to the slot of a bound lane that is
     empty, and otherwise goes to the heap as a cell.  Most traffic uses
     a few fixed delays (the wire, plus a pass latency per pipeline), so
     most events skip the heap. *)

let n_slots = 8

(* A float-only record is stored flat: setting the clock allocates nothing. *)
type clock = { mutable now : float }

(* What the engine's source reads, apart from the engine so the registry
   keeps no engine alive.  [depth] is the queue's length after the last
   fired event's pop, before its handler ran: -1 until one fires. *)
type counts = { mutable scheduled : int; mutable processed : int; mutable depth : int }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable cells : int array;
  mutable events : event array;
  mutable size : int;
  mutable bound : any array;  (* the bound lanes, one per slot *)
  mutable thunks : (unit -> unit) lane array;  (* the engine's own, for [schedule] *)
  mutable queued : int;  (* heap and lanes *)
  clock : clock;
  mutable next_seq : int;
  counts : counts;
}

(* A lane's arrays are a power of two long; [head] is its oldest event.
   A lane holds events only while bound: it loses its slot only when
   empty.  [delay] is fixed, but for the engine's lanes of thunks, which
   it moves to another delay only while they are empty. *)
and 'a lane = {
  engine : t;
  mutable delay : float;
  handler : 'a -> unit;
  none : 'a;  (* what a free cell holds, so the lane keeps nothing it fired *)
  mutable q_times : float array;
  mutable q_seqs : int array;
  mutable q_values : 'a array;
  mutable head : int;
  mutable count : int;
  mutable slot : int;  (* its index in [bound]; -1 when unbound *)
}

and any = Lane : 'a lane -> any [@@unboxed]

let create ?(telemetry = Telemetry.default) () =
  let cap = 16 in
  let c = { scheduled = 0; processed = 0; depth = -1 } in
  Telemetry.source telemetry
    ~read:(fun ~counter ~gauge ->
      if c.scheduled > 0 then counter "sim.events.scheduled" c.scheduled;
      if c.processed > 0 then counter "sim.events.processed" c.processed;
      if c.depth >= 0 then gauge "sim.queue_depth" (float_of_int c.depth))
    ~zero:(fun () ->
      c.scheduled <- 0;
      c.processed <- 0;
      c.depth <- -1);
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    cells = Array.init cap Fun.id;
    events = Array.make cap idle;
    size = 0;
    bound = [||];
    thunks = [||];
    queued = 0;
    clock = { now = 0.0 };
    next_seq = 0;
    counts = c;
  }

let now t = t.clock.now
let pending t = t.queued

(* ---- The heap ---- *)

(* Only called when full, so the new cells are exactly the free ones. *)
let grow t =
  let n = t.size in
  let cap = 2 * n in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.cells <- Array.init cap (fun i -> if i < n then t.cells.(i) else i);
  t.events <- extend t.events idle

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.cells.(dst) <- t.cells.(src)

let[@inline] place t i time seq cell =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.cells.(i) <- cell

(* Event [i] fires before the event at ([time], [seq]). *)
let[@inline] before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] take_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.queued <- t.queued + 1;
  t.counts.scheduled <- t.counts.scheduled + 1;
  seq

let heap_push t ~time ev =
  if t.size = Array.length t.times then grow t;
  let seq = take_seq t in
  let cell = t.cells.(t.size) in
  t.events.(cell) <- ev;
  (* Sift a hole up from the new leaf.  [seq] is the largest queued, so
     the new event only rises past strictly later times. *)
  let i = ref t.size and rising = ref true in
  t.size <- t.size + 1;
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < t.times.(p) then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  place t !i time seq cell

(* Remove the heap's earliest event, advance the clock to it and return
   it.  The heap must be non-empty. *)
let heap_pop t =
  let cell0 = t.cells.(0) in
  let ev = t.events.(cell0) in
  t.events.(cell0) <- idle;
  t.clock.now <- t.times.(0);
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift a hole down from the root, then drop the last event into it. *)
    let time = t.times.(n) and seq = t.seqs.(n) and cell = t.cells.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && before t r t.times.(l) t.seqs.(l) then r else l
        in
        if before t c time seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    place t !i time seq cell
  end;
  t.cells.(n) <- cell0;
  ev

(* ---- Lanes ---- *)

let lane_cap = 16

let lane t ~delay ~none handler =
  if not (delay >= 0.0 && delay < Float.infinity) then
    invalid_arg "Engine.lane: the delay must be finite and >= 0";
  {
    engine = t;
    delay;
    handler;
    none;
    q_times = Array.make lane_cap 0.0;
    q_seqs = Array.make lane_cap 0;
    q_values = Array.make lane_cap none;
    head = 0;
    count = 0;
    slot = -1;
  }

(* Only called when full: unroll the lane into arrays twice as long. *)
let grow_lane l =
  let cap = Array.length l.q_times in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - l.head in
    Array.blit a l.head b 0 first;
    Array.blit a 0 b first l.head;
    b
  in
  l.q_times <- unroll l.q_times 0.0;
  l.q_seqs <- unroll l.q_seqs 0;
  l.q_values <- unroll l.q_values l.none;
  l.head <- 0

(* Bind [l] to a slot: a new one while fewer than [n_slots] are bound,
   else the lowest whose lane is empty, which loses it.  False when every
   slot's lane holds events. *)
let bind t l =
  let n = Array.length t.bound in
  if n < n_slots then begin
    t.bound <- Array.append t.bound [| Lane l |];
    l.slot <- n;
    true
  end
  else begin
    let s = ref 0 in
    while !s < n && (match Array.unsafe_get t.bound !s with Lane v -> v.count > 0) do
      incr s
    done;
    if !s = n then false
    else begin
      (match t.bound.(!s) with Lane v -> v.slot <- -1);
      t.bound.(!s) <- Lane l;
      l.slot <- !s;
      true
    end
  end

let push l x =
  let t = l.engine in
  if l.slot >= 0 || bind t l then begin
    if l.count = Array.length l.q_times then grow_lane l;
    let i = (l.head + l.count) land (Array.length l.q_times - 1) in
    l.q_times.(i) <- t.clock.now +. l.delay;
    l.q_seqs.(i) <- take_seq t;
    l.q_values.(i) <- x;
    l.count <- l.count + 1
  end
  else heap_push t ~time:(t.clock.now +. l.delay) (Call (l.handler, x))

(* ---- Scheduling ---- *)

let run_thunk thunk = thunk ()

(* The index of the engine's lane of thunks at [delay]: the lane at that
   delay, else the lowest empty lane, moved to it, else a new lane while
   there are fewer than [n_slots]; -1 when every lane is busy at other
   delays. *)
let thunk_lane t delay =
  let lanes = t.thunks in
  let n = Array.length lanes in
  let found = ref (-1) and free = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    let l = Array.unsafe_get lanes !i in
    if l.delay = delay then found := !i
    else if !free < 0 && l.count = 0 then free := !i;
    incr i
  done;
  if !found >= 0 then !found
  else if !free >= 0 then begin
    lanes.(!free).delay <- delay;
    !free
  end
  else if n < n_slots then begin
    t.thunks <- Array.append lanes [| lane t ~delay ~none:ignore run_thunk |];
    n
  end
  else -1

let schedule_at t ~time thunk =
  (* Clamp to now; a NaN time fires now too. *)
  let time = if time > t.clock.now then time else t.clock.now in
  heap_push t ~time (Call (thunk, ()))

(* A finite delay >= 0 goes onto a lane of thunks; everything else, and
   a delay arriving while every lane of thunks is busy, to the heap. *)
let schedule t ~delay thunk =
  let i = if delay >= 0.0 && delay < Float.infinity then thunk_lane t delay else -1 in
  if i >= 0 then push t.thunks.(i) thunk
  else schedule_at t ~time:(t.clock.now +. delay) thunk

(* ---- Firing ---- *)

(* [heap] stands for the heap where a slot index would. *)
let heap = n_slots

let[@inline] head_time t s =
  if s = heap then t.times.(0)
  else match Array.unsafe_get t.bound s with Lane l -> Array.unsafe_get l.q_times l.head

(* The part holding the earliest event: a slot index or [heap]; -1 when
   the queue is empty. *)
let earliest t =
  let best = ref (if t.size > 0 then heap else -1) in
  let bt = ref (if t.size > 0 then t.times.(0) else 0.0) in
  let bs = ref (if t.size > 0 then t.seqs.(0) else 0) in
  let bound = t.bound in
  for s = 0 to Array.length bound - 1 do
    match Array.unsafe_get bound s with
    | Lane l ->
      if l.count > 0 then begin
        let h = l.head in
        let time = Array.unsafe_get l.q_times h and seq = Array.unsafe_get l.q_seqs h in
        if !best < 0 || time < !bt || (time = !bt && seq < !bs) then begin
          best := s;
          bt := time;
          bs := seq
        end
      end
  done;
  !best

let[@inline] count_fired t =
  t.queued <- t.queued - 1;
  t.counts.processed <- t.counts.processed + 1;
  t.counts.depth <- t.queued

(* Pop the lane's head into the clock and hand it to the handler; the
   freed cell gets [none]. *)
let fire_lane t l =
  let h = l.head in
  let x = l.q_values.(h) in
  l.q_values.(h) <- l.none;
  t.clock.now <- l.q_times.(h);
  l.head <- (h + 1) land (Array.length l.q_times - 1);
  l.count <- l.count - 1;
  count_fired t;
  l.handler x

let fire t s =
  if s = heap then begin
    let ev = heap_pop t in
    count_fired t;
    match ev with Call (f, x) -> f x
  end
  else match t.bound.(s) with Lane l -> fire_lane t l

let step t =
  let s = earliest t in
  if s < 0 then false
  else begin
    fire t s;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let running = ref true in
    while !running do
      let s = earliest t in
      if s < 0 || head_time t s > limit then begin
        (* Stop at the limit, never moving the clock back. *)
        if limit > t.clock.now then t.clock.now <- limit;
        running := false
      end
      else fire t s
    done
