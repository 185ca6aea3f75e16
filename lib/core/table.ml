type entry = {
  region : Packet.region option;
  xmask : int;
  xoffset : int;
  virtual_addressing : bool;
}

(* Mutated in place by a reinstall; [lookup] hands out the (immutable)
   entries, never the arrays. *)
type app_state = {
  entries : entry array;  (* indexed by stage *)
  ranges : int array;  (* TCAM entries of the protection range, by stage; 0: none *)
  regions : Packet.region option array;
  mutable n_ranges : int;  (* stages with a region: ranges held *)
  mutable words : int;  (* words across the regions *)
  mutable virtual_addressing : bool;
  epoch : int ref;  (* the FID's [epoch_ref] cell *)
  mutable privileged : bool;
  mutable max_passes : int option;
}

type update_stats = { entries_added : int; entries_removed : int }

type t = {
  device : Rmt.Device.t;
  apps : (Packet.fid, app_state) Hashtbl.t;
  quiesced : (Packet.fid, unit) Hashtbl.t;
  epochs : (Packet.fid, int ref) Hashtbl.t;
  mutable added : int;
  mutable removed : int;
}

let create device =
  {
    device;
    apps = Hashtbl.create 64;
    quiesced = Hashtbl.create 8;
    epochs = Hashtbl.create 64;
    added = 0;
    removed = 0;
  }

(* The cell is allocated once per FID and never replaced, so a consumer
   (the JIT's closure cache) can capture it and revalidate with a single
   dereference instead of a table probe per packet. *)
let epoch_ref t ~fid =
  match Hashtbl.find_opt t.epochs fid with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.epochs fid r;
    r

let epoch t ~fid = !(epoch_ref t ~fid)

let bump_epoch t ~fid = incr (epoch_ref t ~fid)

let device t = t.device

(* Largest power of two <= n, minus one: the ADDR_MASK constant for a
   region of n words.  Smearing the top bit into every lower bit and
   dropping it leaves exactly that. *)
let pow2_mask n =
  let rec smear n k = if k > 32 then n else smear (n lor (n lsr k)) (2 * k) in
  if n <= 0 then 0 else smear n 1 lsr 1

let same_region (a : Packet.region option) (b : Packet.region option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    x.Packet.start_word = y.Packet.start_word && x.Packet.n_words = y.Packet.n_words
  | Some _, None | None, Some _ -> false

let release t app s =
  let n = app.ranges.(s) in
  if n > 0 then begin
    Rmt.Tcam.release (Rmt.Device.stage t.device s).Rmt.Device.protection n;
    app.ranges.(s) <- 0
  end

let release_all t app =
  for s = 0 to Array.length app.ranges - 1 do
    release t app s
  done

(* What removing [app] counts and clears; also the first half of a
   reinstall. *)
let retire t ~fid app =
  t.removed <- t.removed + (2 * Array.length app.entries) + app.n_ranges;
  if Hashtbl.length t.quiesced > 0 then Hashtbl.remove t.quiesced fid;
  incr app.epoch

let remove t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | None -> ()
  | Some app ->
    release_all t app;
    Hashtbl.remove t.apps fid;
    retire t ~fid app

(* Move stage [s]'s protection range to [region]: release the installed
   range, then install the new one.  False if the stage's TCAM cannot
   hold it. *)
let reprotect t app s (region : Packet.region option) =
  release t app s;
  match region with
  | None -> true
  | Some r ->
    let lo = r.Packet.start_word in
    let n =
      Rmt.Tcam.install_range (Rmt.Device.stage t.device s).Rmt.Device.protection ~lo
        ~hi:(lo + r.Packet.n_words - 1)
    in
    app.ranges.(s) <- n;
    n > 0

(* Translation constants at stage s describe the app's next memory-access
   region at or above s (the compiler schedules ADDR_* right before the
   access, but any earlier stage works too). *)
let xmask_of (next : Packet.region option) =
  match next with Some r -> pow2_mask r.Packet.n_words | None -> 0

let xoffset_of (next : Packet.region option) ~va =
  match next with Some r when not va -> r.Packet.start_word | Some _ | None -> 0

let same_entry e region ~xmask ~xoffset ~va =
  e.xmask = xmask && e.xoffset = xoffset && e.virtual_addressing = va
  && same_region e.region region

let set_all_entries app (regions : Packet.region option array) =
  let va = app.virtual_addressing in
  let next = ref None in
  for s = Array.length regions - 1 downto 0 do
    let region = regions.(s) in
    (match region with Some _ -> next := region | None -> ());
    let xmask = xmask_of !next and xoffset = xoffset_of !next ~va in
    if not (same_entry app.entries.(s) region ~xmask ~xoffset ~va) then
      app.entries.(s) <- { region; xmask; xoffset; virtual_addressing = va }
  done

let rec next_region (regions : Packet.region option array) s =
  if s >= Array.length regions then None
  else match regions.(s) with Some _ as r -> r | None -> next_region regions (s + 1)

(* Give the stages from [s] down to just above the next lower stage with
   a region the entry they share, made when the first of them differs
   from it.  Returns the lowest stage given it. *)
let rec fill_down app (regions : Packet.region option array) s ~xmask ~xoffset shared =
  if s < 0 then 0
  else
    match regions.(s) with
    | Some _ -> s + 1
    | None ->
      let va = app.virtual_addressing in
      if same_entry app.entries.(s) None ~xmask ~xoffset ~va then
        fill_down app regions (s - 1) ~xmask ~xoffset shared
      else begin
        let e =
          match shared with
          | Some e -> e
          | None -> { region = None; xmask; xoffset; virtual_addressing = va }
        in
        app.entries.(s) <- e;
        fill_down app regions (s - 1) ~xmask ~xoffset (Some e)
      end

(* Stage [c]'s region changed: rewrite the entries from [c] down to just
   above the next lower stage with a region.  They all describe the
   first region at or above [c], and those below [c] hold no region, so
   they share one entry.  Entries are replaced only where they differ.
   Returns the lowest stage rewritten. *)
let rewrite_window app (regions : Packet.region option array) c =
  let va = app.virtual_addressing in
  let next = next_region regions c in
  let xmask = xmask_of next and xoffset = xoffset_of next ~va in
  let region = regions.(c) in
  if not (same_entry app.entries.(c) region ~xmask ~xoffset ~va) then
    app.entries.(c) <- { region; xmask; xoffset; virtual_addressing = va };
  fill_down app regions (c - 1) ~xmask ~xoffset None

(* Adopt [region] at stage [s], keeping the range and word counts. *)
let adopt app s (region : Packet.region option) =
  (match app.regions.(s) with
  | Some r ->
    app.n_ranges <- app.n_ranges - 1;
    app.words <- app.words - r.Packet.n_words
  | None -> ());
  (match region with
  | Some r ->
    app.n_ranges <- app.n_ranges + 1;
    app.words <- app.words + r.Packet.n_words
  | None -> ());
  app.regions.(s) <- region

(* Walk down from stage [s] onto [regions].  Each changed stage moves its
   protection range and its cell, and opens a window of entries unless
   one opened above already rewrote it; [low] is the lowest stage
   rewritten so far.  Returns the lowest stage whose TCAM could not hold
   its new range, or -1.  Top-level, so the walk allocates no closure. *)
let rec resync t app regions s ~low ~failed =
  if s < 0 then failed
  else begin
    let region = regions.(s) and old = app.regions.(s) in
    if old == region then resync t app regions (s - 1) ~low ~failed
    else if same_region old region then begin
      (* Keep the caller's cell, so its next reinstall finds the stage
         unchanged by physical equality. *)
      app.regions.(s) <- region;
      resync t app regions (s - 1) ~low ~failed
    end
    else begin
      let failed = if reprotect t app s region then failed else s in
      let low = if s < low then rewrite_window app regions s else low in
      adopt app s region;
      resync t app regions (s - 1) ~low ~failed
    end
  end

(* A reinstall leaves what [remove] followed by a fresh install would, with
   the same counts and epoch, but touches only the stages whose region
   changed and the translation entries that describe them.  A fresh
   install is the same walk from blank entries.  TCAM is per stage, so
   whether a stage can hold its new range once its old one is released
   does not depend on the other stages: the lowest failing stage is the
   one [remove] and a fresh install would have failed at. *)
let install ?(privileged = false) ?max_passes t ~fid ~virtual_addressing ~regions =
  let n = Rmt.Device.n_stages t.device in
  if Array.length regions <> n then
    invalid_arg "Table.install: regions array must have one slot per stage";
  let app, fresh =
    match Hashtbl.find t.apps fid with
    | app ->
      retire t ~fid app;
      (app, false)
    | exception Not_found ->
      let blank = { region = None; xmask = 0; xoffset = 0; virtual_addressing } in
      ( {
          entries = Array.make n blank;
          ranges = Array.make n 0;
          regions = Array.make n None;
          n_ranges = 0;
          words = 0;
          virtual_addressing;
          epoch = epoch_ref t ~fid;
          privileged;
          max_passes;
        },
        true )
  in
  match resync t app regions (n - 1) ~low:n ~failed:(-1) with
  | -1 ->
    if app.virtual_addressing <> virtual_addressing then begin
      app.virtual_addressing <- virtual_addressing;
      set_all_entries app regions
    end;
    app.privileged <- privileged;
    app.max_passes <- max_passes;
    if fresh then Hashtbl.replace t.apps fid app;
    (* one FID-gating entry and one translation entry per stage,
       plus the protection prefixes *)
    t.added <- t.added + (2 * n) + app.n_ranges;
    incr app.epoch;
    Ok ()
  | s ->
    release_all t app;
    if not fresh then Hashtbl.remove t.apps fid;
    Error (`Tcam_capacity s)

let lookup t ~fid ~stage =
  match Hashtbl.find t.apps fid with
  | app ->
    if stage < 0 || stage >= Array.length app.entries then None
    else Some app.entries.(stage)
  | exception Not_found -> None

let installed t ~fid = Hashtbl.mem t.apps fid

let regions_of t ~fid =
  Option.map (fun app -> Array.copy app.regions) (Hashtbl.find_opt t.apps fid)

let installed_words t ~fid =
  match Hashtbl.find t.apps fid with app -> app.words | exception Not_found -> 0

let is_privileged t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | Some app -> app.privileged
  | None -> false

let max_passes_of t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | Some app -> app.max_passes
  | None -> None

let is_quiesced t ~fid = Hashtbl.length t.quiesced > 0 && Hashtbl.mem t.quiesced fid

let quiesce t ~fid =
  if not (is_quiesced t ~fid) then begin
    Hashtbl.replace t.quiesced fid ();
    bump_epoch t ~fid
  end

let unquiesce t ~fid =
  if is_quiesced t ~fid then begin
    Hashtbl.remove t.quiesced fid;
    bump_epoch t ~fid
  end

let update_stats t = { entries_added = t.added; entries_removed = t.removed }

let reset_update_stats t =
  t.added <- 0;
  t.removed <- 0

let fids t = Hashtbl.fold (fun fid _ acc -> fid :: acc) t.apps []
