open Import

type quota = { max_blocks : int; max_fids : int; max_stages : int }

let unlimited = { max_blocks = max_int; max_fids = max_int; max_stages = max_int }
let quota_blocks max_blocks = { unlimited with max_blocks }

type info = { id : int; name : string; weight : int; quota : quota }
type usage = { blocks : int; fids : int; stages : int }

let no_usage = { blocks = 0; fids = 0; stages = 0 }

type footprint = { f_tenant : int; f_blocks : int; f_stages : int list; f_seq : int }

type tenant_state = {
  mutable t_info : info;
  mutable t_blocks : int;  (* invariant: sum of charged footprints *)
  mutable t_fids : int;
  fids : (int, unit) Hashtbl.t;
}

type t = {
  tenants : (int, tenant_state) Hashtbl.t;
  bindings : (int, int) Hashtbl.t;  (* fid -> tenant *)
  footprints : (int, footprint) Hashtbl.t;  (* fid -> charged footprint *)
  tel : Telemetry.t;
  mutable seq : int;  (* admission-order stamp for recency *)
}

let create ?(telemetry = Telemetry.default) () =
  {
    tenants = Hashtbl.create 64;
    bindings = Hashtbl.create 256;
    footprints = Hashtbl.create 256;
    tel = telemetry;
    seq = 0;
  }

let state t id = Hashtbl.find_opt t.tenants id

let register t ?name ?(weight = 1) ?(quota = unlimited) id =
  if Hashtbl.mem t.tenants id then
    invalid_arg (Printf.sprintf "Tenant.register: tenant %d already registered" id);
  if weight <= 0 then invalid_arg "Tenant.register: weight must be positive";
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" id in
  let info = { id; name; weight; quota } in
  Hashtbl.replace t.tenants id
    { t_info = info; t_blocks = 0; t_fids = 0; fids = Hashtbl.create 16 };
  Telemetry.incr t.tel "tenant.registered";
  info

let set_quota t ~tenant quota =
  match state t tenant with
  | None -> invalid_arg (Printf.sprintf "Tenant.set_quota: unknown tenant %d" tenant)
  | Some s -> s.t_info <- { s.t_info with quota }

let info t id = Option.map (fun s -> s.t_info) (state t id)

let tenants t =
  Hashtbl.fold (fun _ s acc -> s.t_info :: acc) t.tenants []
  |> List.sort (fun a b -> compare a.id b.id)

let total_weight t =
  Hashtbl.fold (fun _ s acc -> acc + s.t_info.weight) t.tenants 0

let tenant_of t ~fid = Hashtbl.find_opt t.bindings fid

let bind t ~fid ~tenant =
  if not (Hashtbl.mem t.tenants tenant) then
    invalid_arg (Printf.sprintf "Tenant.bind: unknown tenant %d" tenant);
  match Hashtbl.find_opt t.bindings fid with
  | Some owner when owner <> tenant ->
    invalid_arg
      (Printf.sprintf "Tenant.bind: fid %d already bound to tenant %d" fid owner)
  | _ -> Hashtbl.replace t.bindings fid tenant

let discharge t ~fid =
  match Hashtbl.find_opt t.footprints fid with
  | None -> ()
  | Some fp ->
    Hashtbl.remove t.footprints fid;
    (match state t fp.f_tenant with
    | None -> ()
    | Some s ->
      s.t_blocks <- s.t_blocks - fp.f_blocks;
      s.t_fids <- s.t_fids - 1;
      Hashtbl.remove s.fids fid;
      assert (s.t_blocks >= 0 && s.t_fids >= 0))

let unbind t ~fid =
  discharge t ~fid;
  Hashtbl.remove t.bindings fid

let charge t ~fid ~blocks ~stages =
  if blocks < 0 then invalid_arg "Tenant.charge: negative blocks";
  match Hashtbl.find_opt t.bindings fid with
  | None -> invalid_arg (Printf.sprintf "Tenant.charge: fid %d is not bound" fid)
  | Some tenant ->
    (* Re-charge replaces: keep the original admission stamp so an
       elastic resize does not make an old resident look fresh. *)
    let prev = Hashtbl.find_opt t.footprints fid in
    discharge t ~fid;
    let f_seq =
      match prev with
      | Some fp -> fp.f_seq
      | None ->
        t.seq <- t.seq + 1;
        t.seq
    in
    Hashtbl.replace t.footprints fid
      { f_tenant = tenant; f_blocks = blocks; f_stages = stages; f_seq };
    (match state t tenant with
    | None -> ()
    | Some s ->
      s.t_blocks <- s.t_blocks + blocks;
      s.t_fids <- s.t_fids + 1;
      Hashtbl.replace s.fids fid ())

let usage t id =
  match state t id with
  | None -> no_usage
  | Some s ->
    let distinct = Hashtbl.create 32 in
    Hashtbl.iter
      (fun fid () ->
        match Hashtbl.find_opt t.footprints fid with
        | None -> ()
        | Some fp ->
          List.iter (fun st -> Hashtbl.replace distinct st ()) fp.f_stages)
      s.fids;
    { blocks = s.t_blocks; fids = s.t_fids; stages = Hashtbl.length distinct }

let charged_fids t ~tenant =
  match state t tenant with
  | None -> []
  | Some s ->
    Hashtbl.fold
      (fun fid () acc ->
        match Hashtbl.find_opt t.footprints fid with
        | None -> acc
        | Some fp -> (fid, fp.f_seq) :: acc)
      s.fids []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> List.map fst

let would_exceed t ~tenant ~blocks ~stages =
  match state t tenant with
  | None -> true
  | Some s ->
    let q = s.t_info.quota in
    let u = usage t tenant in
    u.blocks + blocks > q.max_blocks
    || u.fids + 1 > q.max_fids
    || u.stages + stages > q.max_stages

let over_quota_blocks t ~tenant =
  match state t tenant with
  | None -> 0
  | Some s -> max 0 (s.t_blocks - s.t_info.quota.max_blocks)

let fair_blocks t ~tenant ~capacity =
  match state t tenant with
  | None -> 0.0
  | Some s ->
    let tw = total_weight t in
    if tw = 0 then 0.0
    else float_of_int capacity *. float_of_int s.t_info.weight /. float_of_int tw
