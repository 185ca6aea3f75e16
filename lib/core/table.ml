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
  handles : Rmt.Tcam.handle option array;  (* protection range, by stage *)
  regions : Packet.region option array;
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

(* Protection ranges held: one per stage with a region. *)
let n_ranges (regions : Packet.region option array) =
  let k = ref 0 in
  for s = 0 to Array.length regions - 1 do
    match regions.(s) with Some _ -> incr k | None -> ()
  done;
  !k

let release_all t app =
  for s = 0 to Array.length app.handles - 1 do
    match app.handles.(s) with
    | None -> ()
    | Some h ->
      Rmt.Tcam.remove (Rmt.Device.stage t.device s).Rmt.Device.protection h;
      app.handles.(s) <- None
  done

(* What removing [app] counts and clears; also the first half of a
   reinstall. *)
let retire t ~fid app =
  t.removed <- t.removed + (2 * Array.length app.entries) + n_ranges app.regions;
  Hashtbl.remove t.quiesced fid;
  bump_epoch t ~fid

let remove t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | None -> ()
  | Some app ->
    release_all t app;
    Hashtbl.remove t.apps fid;
    retire t ~fid app

(* Move each changed stage's protection range, from [s] on, to
   [regions.(s)]: release the installed range, then install the new one.
   Returns the first stage whose TCAM cannot hold its new range.
   Top-level, so the per-stage walk allocates no closure. *)
let rec protect t app regions s =
  if s >= Array.length regions then None
  else if same_region app.regions.(s) regions.(s) then protect t app regions (s + 1)
  else begin
    let tcam = (Rmt.Device.stage t.device s).Rmt.Device.protection in
    (match app.handles.(s) with
    | Some h ->
      Rmt.Tcam.remove tcam h;
      app.handles.(s) <- None
    | None -> ());
    match regions.(s) with
    | None -> protect t app regions (s + 1)
    | Some r -> (
      let lo = r.Packet.start_word in
      match Rmt.Tcam.install_range tcam ~lo ~hi:(lo + r.Packet.n_words - 1) with
      | Ok h ->
        app.handles.(s) <- Some h;
        protect t app regions (s + 1)
      | Error `Capacity -> Some s)
  end

(* A reinstall leaves what [remove] followed by a fresh install would, with
   the same counts and epoch, but touches only the stages whose region
   changed.  TCAM is per stage, so releasing a stage's old range just
   before installing its new one meets the same capacity check there as
   releasing everything first, and the first stage that fails is the
   same. *)
let install ?(privileged = false) ?max_passes t ~fid ~virtual_addressing ~regions =
  let n = Rmt.Device.n_stages t.device in
  if Array.length regions <> n then
    invalid_arg "Table.install: regions array must have one slot per stage";
  let installed = Hashtbl.find_opt t.apps fid in
  let fresh = Option.is_none installed in
  let app =
    match installed with
    | Some app ->
      retire t ~fid app;
      app
    | None ->
      let blank = { region = None; xmask = 0; xoffset = 0; virtual_addressing } in
      {
        entries = Array.make n blank;
        handles = Array.make n None;
        regions = Array.make n None;
        privileged;
        max_passes;
      }
  in
  match protect t app regions 0 with
  | Some s ->
    release_all t app;
    if not fresh then Hashtbl.remove t.apps fid;
    Error (`Tcam_capacity s)
  | None ->
    (* Translation constants at stage s describe the app's next
       memory-access stage >= s (the compiler schedules ADDR_* right before
       the access, but any earlier stage works too). *)
    let next = ref None in
    for s = n - 1 downto 0 do
      let region = regions.(s) in
      (match region with Some _ -> next := region | None -> ());
      let xmask = match !next with Some r -> pow2_mask r.Packet.n_words | None -> 0 in
      let xoffset =
        match !next with
        | Some r when not virtual_addressing -> r.Packet.start_word
        | Some _ | None -> 0
      in
      let e = app.entries.(s) in
      if
        not
          (e.xmask = xmask && e.xoffset = xoffset
          && e.virtual_addressing = virtual_addressing
          && same_region e.region region)
      then app.entries.(s) <- { region; xmask; xoffset; virtual_addressing };
      app.regions.(s) <- region
    done;
    app.privileged <- privileged;
    app.max_passes <- max_passes;
    if fresh then Hashtbl.replace t.apps fid app;
    (* one FID-gating entry and one translation entry per stage,
       plus the protection prefixes *)
    t.added <- t.added + (2 * n) + n_ranges regions;
    bump_epoch t ~fid;
    Ok ()

let lookup t ~fid ~stage =
  match Hashtbl.find_opt t.apps fid with
  | None -> None
  | Some app ->
    if stage < 0 || stage >= Array.length app.entries then None
    else Some app.entries.(stage)

let installed t ~fid = Hashtbl.mem t.apps fid

let regions_of t ~fid =
  Option.map (fun app -> Array.copy app.regions) (Hashtbl.find_opt t.apps fid)

let is_privileged t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | Some app -> app.privileged
  | None -> false

let max_passes_of t ~fid =
  match Hashtbl.find_opt t.apps fid with
  | Some app -> app.max_passes
  | None -> None

let is_quiesced t ~fid = Hashtbl.mem t.quiesced fid

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
