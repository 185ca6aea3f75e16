type app = { demand : int; pages : int; page_blocks : int }

type t = {
  params : Rmt.Params.t;
  usable_blocks : int;  (* per stage, after virtualization overhead *)
  apps : (int, app) Hashtbl.t;
}

(* The compile-time page-size set in blocks, ascending, and the
   pre-compiled app-type set. *)
let page_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
let registered = [ "cache"; "heavy-hitter"; "load-balancer" ]

let create params =
  {
    params;
    usable_blocks =
      int_of_float
        (Rmt.Resource.netvrm_availability
        *. float_of_int params.Rmt.Params.blocks_per_stage);
    apps = Hashtbl.create 64;
  }

type outcome =
  | Granted of { pages : int; page_blocks : int; waste_blocks : int }
  | Rejected_capacity
  | Rejected_unregistered

let reserved_blocks t =
  Hashtbl.fold (fun _ a acc -> acc + (a.pages * a.page_blocks)) t.apps 0

let admit t ~fid ~app_type ~demand_blocks =
  if not (List.mem app_type registered) then Rejected_unregistered
  else if demand_blocks <= 0 then invalid_arg "Netvrm.admit: demand must be positive"
  else begin
    (* Smallest page size (possibly several pages of it) covering the
       demand; NetVRM pages are uniform per allocation. *)
    let page_blocks =
      match List.find_opt (fun p -> p >= demand_blocks) page_sizes with
      | Some p -> p
      | None -> List.fold_left max 1 page_sizes
    in
    let pages = (demand_blocks + page_blocks - 1) / page_blocks in
    let total = pages * page_blocks in
    if reserved_blocks t + total > t.usable_blocks then Rejected_capacity
    else begin
      Hashtbl.replace t.apps fid { demand = demand_blocks; pages; page_blocks };
      Granted { pages; page_blocks; waste_blocks = total - demand_blocks }
    end
  end

let utilization t =
  let useful = Hashtbl.fold (fun _ a acc -> acc + a.demand) t.apps 0 in
  float_of_int useful /. float_of_int t.params.Rmt.Params.blocks_per_stage

let gross_utilization t =
  float_of_int (reserved_blocks t)
  /. float_of_int t.params.Rmt.Params.blocks_per_stage

let waste_blocks t =
  Hashtbl.fold (fun _ a acc -> acc + ((a.pages * a.page_blocks) - a.demand)) t.apps 0
