module Telemetry = Activermt_telemetry.Telemetry

(* The queue is a binary min-heap on (time, seq) held in parallel arrays,
   so ordering two events reads an unboxed float and an int, and neither
   a push nor a pop allocates.  A thunk stays in one cell of [thunks]
   from push to pop; the heap moves only the cell's index ([slots]), so
   sifts write no pointers and pay no write barrier.  Sifts move a hole
   rather than swapping.  [slots.(size ..)] holds the free cells, and a
   free cell holds [idle], so the queue keeps no fired thunk alive. *)

let idle () = ()

(* A float-only record is stored flat: setting the clock allocates nothing. *)
type clock = { mutable now : float }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
  clock : clock;
  mutable next_seq : int;
  scheduled : Telemetry.counter;
  processed : Telemetry.counter;
  depth : Telemetry.gauge;
}

let create ?(telemetry = Telemetry.default) () =
  let cap = 16 in
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    slots = Array.init cap Fun.id;
    thunks = Array.make cap idle;
    size = 0;
    clock = { now = 0.0 };
    next_seq = 0;
    scheduled = Telemetry.counter telemetry "sim.events.scheduled";
    processed = Telemetry.counter telemetry "sim.events.processed";
    depth = Telemetry.gauge telemetry "sim.queue_depth";
  }

let now t = t.clock.now
let pending t = t.size

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
  t.thunks <- extend t.thunks idle

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

let schedule_at t ~time thunk =
  (* Clamp to now; a NaN time fires now too. *)
  let time = if time > t.clock.now then time else t.clock.now in
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = t.slots.(t.size) in
  t.thunks.(slot) <- thunk;
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
  place t !i time seq slot;
  Telemetry.bump t.scheduled

let schedule t ~delay thunk = schedule_at t ~time:(t.clock.now +. delay) thunk

(* Remove the earliest event, advance the clock to it and return its
   thunk.  The queue must be non-empty. *)
let pop t =
  let slot0 = t.slots.(0) in
  let thunk = t.thunks.(slot0) in
  t.thunks.(slot0) <- idle;
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
  thunk

let step t =
  if t.size = 0 then false
  else begin
    let thunk = pop t in
    Telemetry.bump t.processed;
    Telemetry.set t.depth (float_of_int t.size);
    thunk ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let rec go () =
      if t.size = 0 then t.clock.now <- Float.max t.clock.now limit
      else if t.times.(0) > limit then t.clock.now <- limit
      else begin
        ignore (step t);
        go ()
      end
    in
    go ()
