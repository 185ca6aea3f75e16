module Telemetry = Activermt_telemetry.Telemetry

(* An event is a handler and its argument in one cell.  The argument's
   type is existential, so a hop can queue its message and a shared
   handler instead of a fresh closure over both. *)
type event = Call : ('a -> unit) * 'a -> event

(* A free cell holds [idle], so the queue keeps no fired event alive. *)
let idle = Call (ignore, ())

(* The queue has two parts, and the next event is the least (time, seq)
   over both.

   - A binary min-heap on (time, seq) held in parallel arrays, so
     ordering two events reads an unboxed float and an int, and neither a
     push nor a pop allocates.  An event stays in one cell of [events]
     from push to pop; the heap moves only the cell's index ([slots]), so
     sifts write no pointers and pay no write barrier.  Sifts move a hole
     rather than swapping.  [slots.(size ..)] holds the free cells.
   - [n_rings] FIFO rings, each bound to one delay.  Events scheduled
     with the same delay from a clock that never goes back arrive in
     (time, seq) order, because IEEE addition is monotone and seqs only
     grow; a ring takes an event only when that order holds, so its head
     is its least event.  Most traffic uses a few fixed delays (the wire,
     plus a pass latency per pipeline), so most events skip the heap. *)

let n_rings = 8

(* A ring's arrays are a power of two long; [head] is its oldest event. *)
type ring = {
  mutable r_times : float array;
  mutable r_seqs : int array;
  mutable r_events : event array;
  mutable head : int;
  mutable count : int;
}

(* A float-only record is stored flat: setting the clock allocates nothing. *)
type clock = { mutable now : float }

(* What the engine's source reads, apart from the engine so the registry
   keeps no engine alive.  [depth] is the queue's length after the last
   fired event's pop, before its handler ran: -1 until one fires. *)
type counts = { mutable scheduled : int; mutable processed : int; mutable depth : int }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable events : event array;
  mutable size : int;
  rings : ring array;
  delays : float array;  (* each ring's delay; NaN (equal to none) when unbound *)
  mutable bound : int;
      (* rings [0 .. bound - 1] are bound; a ring is only bound when every
         ring below it is busy, so the others are unbound and empty *)
  mutable queued : int;  (* heap and rings *)
  clock : clock;
  mutable next_seq : int;
  counts : counts;
}

let ring_cap = 16

let make_ring () =
  {
    r_times = Array.make ring_cap 0.0;
    r_seqs = Array.make ring_cap 0;
    r_events = Array.make ring_cap idle;
    head = 0;
    count = 0;
  }

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
    slots = Array.init cap Fun.id;
    events = Array.make cap idle;
    size = 0;
    rings = Array.init n_rings (fun _ -> make_ring ());
    delays = Array.make n_rings Float.nan;
    bound = 0;
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
  t.slots <- Array.init cap (fun i -> if i < n then t.slots.(i) else i);
  t.events <- extend t.events idle

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

let[@inline] place t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

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
  let slot = t.slots.(t.size) in
  t.events.(slot) <- ev;
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
  place t !i time seq slot

(* Remove the heap's earliest event, advance the clock to it and return
   it.  The heap must be non-empty. *)
let heap_pop t =
  let slot0 = t.slots.(0) in
  let ev = t.events.(slot0) in
  t.events.(slot0) <- idle;
  t.clock.now <- t.times.(0);
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift a hole down from the root, then drop the last event into it. *)
    let time = t.times.(n) and seq = t.seqs.(n) and slot = t.slots.(n) in
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
    place t !i time seq slot
  end;
  t.slots.(n) <- slot0;
  ev

(* ---- The rings ---- *)

(* Only called when full: unroll the ring into arrays twice as long. *)
let ring_grow g =
  let cap = Array.length g.r_times in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - g.head in
    Array.blit a g.head b 0 first;
    Array.blit a 0 b first g.head;
    b
  in
  g.r_times <- unroll g.r_times 0.0;
  g.r_seqs <- unroll g.r_seqs 0;
  g.r_events <- unroll g.r_events idle;
  g.head <- 0

let ring_pop t g =
  let h = g.head in
  let ev = g.r_events.(h) in
  g.r_events.(h) <- idle;
  t.clock.now <- g.r_times.(h);
  g.head <- (h + 1) land (Array.length g.r_times - 1);
  g.count <- g.count - 1;
  ev

(* The ring bound to [delay]; else the lowest empty ring, bound to it;
   else -1. *)
let ring_for t delay =
  let found = ref (-1) and free = ref (-1) and r = ref 0 in
  let candidates = if t.bound < n_rings then t.bound + 1 else n_rings in
  while !found < 0 && !r < candidates do
    if Array.unsafe_get t.delays !r = delay then found := !r
    else if !free < 0 && (Array.unsafe_get t.rings !r).count = 0 then free := !r;
    incr r
  done;
  if !found < 0 && !free >= 0 then begin
    t.delays.(!free) <- delay;
    if !free = t.bound then t.bound <- t.bound + 1;
    found := !free
  end;
  !found

(* ---- Scheduling ---- *)

let schedule_at_event t ~time ev =
  (* Clamp to now; a NaN time fires now too. *)
  let time = if time > t.clock.now then time else t.clock.now in
  heap_push t ~time ev

(* A finite delay >= 0 goes to its ring when the ring's order allows;
   everything else goes to the heap. *)
let schedule_event t ~delay ev =
  let time = t.clock.now +. delay in
  let r = if delay >= 0.0 && delay < Float.infinity then ring_for t delay else -1 in
  if r < 0 then schedule_at_event t ~time ev
  else begin
    let g = t.rings.(r) in
    let last = (g.head + g.count - 1) land (Array.length g.r_times - 1) in
    if g.count > 0 && time < g.r_times.(last) then heap_push t ~time ev
    else begin
      if g.count = Array.length g.r_times then ring_grow g;
      let i = (g.head + g.count) land (Array.length g.r_times - 1) in
      g.r_times.(i) <- time;
      g.r_seqs.(i) <- take_seq t;
      g.r_events.(i) <- ev;
      g.count <- g.count + 1
    end
  end

let schedule_call t ~delay f x = schedule_event t ~delay (Call (f, x))
let schedule t ~delay thunk = schedule_event t ~delay (Call (thunk, ()))
let schedule_at t ~time thunk = schedule_at_event t ~time (Call (thunk, ()))

(* ---- Firing ---- *)

(* [heap] stands for the heap where a ring index would. *)
let heap = n_rings

let[@inline] head_time t s =
  if s = heap then t.times.(0)
  else
    let g = Array.unsafe_get t.rings s in
    Array.unsafe_get g.r_times g.head

(* The part holding the earliest event: a ring index or [heap]; -1 when
   the queue is empty. *)
let earliest t =
  let best = ref (if t.size > 0 then heap else -1) in
  let bt = ref (if t.size > 0 then t.times.(0) else 0.0) in
  let bs = ref (if t.size > 0 then t.seqs.(0) else 0) in
  for r = 0 to t.bound - 1 do
    let g = Array.unsafe_get t.rings r in
    if g.count > 0 then begin
      let h = g.head in
      let time = Array.unsafe_get g.r_times h and seq = Array.unsafe_get g.r_seqs h in
      if !best < 0 || time < !bt || (time = !bt && seq < !bs) then begin
        best := r;
        bt := time;
        bs := seq
      end
    end
  done;
  !best

let fire t s =
  let ev = if s = heap then heap_pop t else ring_pop t t.rings.(s) in
  t.queued <- t.queued - 1;
  t.counts.processed <- t.counts.processed + 1;
  t.counts.depth <- t.queued;
  match ev with Call (f, x) -> f x

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
