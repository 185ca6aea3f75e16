type switch_id = int

(* One physical bidirectional link.  [up] is the only mutable bit of
   topology state: flapping a link repairs the affected route tables in
   place instead of rebuilding them. *)
type link = {
  la : int;
  lb : int;
  lat : float;
  cap : float option;
  mutable up : bool;
}

(* Per-destination route table: distance from every source plus the
   complete equal-cost first-hop set (ascending, so the deterministic
   single-hop choice is the head). *)
type rt = { dist : float array; hops : int list array }

type t = {
  n : int;
  adj : (int * link) list array;  (* neighbour, shared link record *)
  links : link array;
  link_tbl : (int * int, link) Hashtbl.t;  (* (min, max) endpoint key *)
  routes : rt option array;  (* lazily built, index = destination *)
  pod_ids : int array;
  pods : int;
  homes : (int, switch_id) Hashtbl.t;
  mutable c_sssp_runs : int;
  mutable c_repairs : int;
  mutable c_pairs_touched : int;
  mutable c_flaps : int;
}

type stats = {
  sssp_runs : int;
  repairs : int;
  pairs_touched : int;
  flaps : int;
}

(* Equal-cost detection must survive floating-point sums of mixed link
   latencies.  Infinity compares equal to itself only via the [a = b]
   short-circuit (inf - inf is nan), and the epsilon term applies only
   when both sides are finite — against an infinite distance the
   relative threshold itself is infinite, which would declare any finite
   candidate "equal" to unreachable and rob the insert repair of its
   improvement seed. *)
let approx_eq a b =
  a = b
  || Float.is_finite a && Float.is_finite b
     && Float.abs (a -. b) <= 1e-12 +. (1e-9 *. Float.max (Float.abs a) (Float.abs b))

let approx_lt a b = a < b && not (approx_eq a b)

(* ---------- construction ---------- *)

let key a b = if a < b then (a, b) else (b, a)

let build ~switches ~pod_ids ~pods links =
  if switches < 1 then invalid_arg "Topology.create: need at least one switch";
  let n = switches in
  let tbl = Hashtbl.create (List.length links) in
  List.iter
    (fun (a, b, lat, cap) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Topology.create: link endpoint out of range";
      if a = b then invalid_arg "Topology.create: self-loop";
      if lat <= 0.0 then invalid_arg "Topology.create: latency must be positive";
      (* The cheapest of any parallel edges wins, as before. *)
      match Hashtbl.find_opt tbl (key a b) with
      | Some l when l.lat <= lat -> ()
      | Some _ | None ->
        Hashtbl.replace tbl (key a b) { la = a; lb = b; lat; cap; up = true })
    links;
  let links = Hashtbl.fold (fun _ l acc -> l :: acc) tbl [] in
  let links =
    Array.of_list
      (List.sort (fun l m -> compare (key l.la l.lb) (key m.la m.lb)) links)
  in
  let adj = Array.make n [] in
  Array.iter
    (fun l ->
      adj.(l.la) <- (l.lb, l) :: adj.(l.la);
      adj.(l.lb) <- (l.la, l) :: adj.(l.lb))
    links;
  Array.iteri
    (fun i nbrs ->
      adj.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) nbrs)
    adj;
  {
    n;
    adj;
    links;
    link_tbl = tbl;
    routes = Array.make n None;
    pod_ids;
    pods;
    homes = Hashtbl.create 16;
    c_sssp_runs = 0;
    c_repairs = 0;
    c_pairs_touched = 0;
    c_flaps = 0;
  }

let flat_pods n = (Array.make n 0, 1)

let create ~switches ~links =
  let pod_ids, pods = flat_pods (max switches 1) in
  build ~switches ~pod_ids ~pods
    (List.map (fun (a, b, lat) -> (a, b, lat, None)) links)

let pairs n =
  List.concat (List.init n (fun i -> List.init n (fun j -> (i, j))))
  |> List.filter (fun (i, j) -> i < j)

let full_mesh ~switches ~latency_s =
  create ~switches ~links:(List.map (fun (i, j) -> (i, j, latency_s)) (pairs switches))

let line ~switches ~latency_s =
  create ~switches
    ~links:(List.init (max 0 (switches - 1)) (fun i -> (i, i + 1, latency_s)))

let star ~switches ~latency_s =
  create ~switches
    ~links:(List.init (max 0 (switches - 1)) (fun i -> (0, i + 1, latency_s)))

(* The datacenter fabrics' per-hop latency and link capacities: 10G at
   the edge, 40G above it. *)
let hop_latency_s = 5.0e-6
let edge_capacity_bps = 10.0e9
let core_capacity_bps = 40.0e9

let fat_tree ?pods ~k () =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topology.fat_tree: k must be even and >= 2";
  let p = match pods with Some p -> p | None -> k in
  if p < 1 || p > k then invalid_arg "Topology.fat_tree: pods must be in [1, k]";
  let half = k / 2 in
  let n = (p * k) + (half * half) in
  let edge i j = (i * k) + j in
  let agg i m = (i * k) + half + m in
  let core m c = (p * k) + (m * half) + c in
  let links = ref [] in
  for i = 0 to p - 1 do
    for j = 0 to half - 1 do
      for m = 0 to half - 1 do
        links :=
          (edge i j, agg i m, hop_latency_s, Some edge_capacity_bps) :: !links
      done
    done;
    for m = 0 to half - 1 do
      for c = 0 to half - 1 do
        links :=
          (agg i m, core m c, hop_latency_s, Some core_capacity_bps) :: !links
      done
    done
  done;
  let pod_ids = Array.init n (fun sw -> if sw < p * k then sw / k else p) in
  build ~switches:n ~pod_ids ~pods:(p + 1) !links

let leaf_spine ?(pod_size = 16) ~leaves ~spines () =
  if leaves < 1 then invalid_arg "Topology.leaf_spine: leaves must be positive";
  if spines < 1 then invalid_arg "Topology.leaf_spine: spines must be positive";
  if pod_size < 1 then invalid_arg "Topology.leaf_spine: pod_size must be positive";
  let n = leaves + spines in
  let links = ref [] in
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      links := (l, leaves + s, hop_latency_s, Some core_capacity_bps) :: !links
    done
  done;
  let leaf_pods = (leaves + pod_size - 1) / pod_size in
  let pod_ids =
    Array.init n (fun sw -> if sw < leaves then sw / pod_size else leaf_pods)
  in
  build ~switches:n ~pod_ids ~pods:(leaf_pods + 1) !links

(* ---------- basic queries ---------- *)

let switches t = t.n
let n_links t = Array.length t.links

let check t name i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Topology.%s: switch out of range" name)

let link_capacity t ~a ~b =
  check t "link_capacity" a;
  check t "link_capacity" b;
  Option.bind (Hashtbl.find_opt t.link_tbl (key a b)) (fun l -> l.cap)

let n_pods t = t.pods

let pod_of t ~sw =
  check t "pod_of" sw;
  t.pod_ids.(sw)

let pod_members t ~pod =
  if pod < 0 || pod >= t.pods then
    invalid_arg "Topology.pod_members: pod out of range";
  let acc = ref [] in
  for sw = t.n - 1 downto 0 do
    if t.pod_ids.(sw) = pod then acc := sw :: !acc
  done;
  !acc

(* ---------- SSSP (full build) ----------

   A small array-backed binary min-heap; n is a few thousand at most, so
   nothing fancier is warranted. *)

module Heap = struct
  type h = { mutable a : (float * int) array; mutable len : int }

  let create () = { a = Array.make 64 (0.0, 0); len = 0 }

  let push h k =
    if h.len = Array.length h.a then begin
      let a' = Array.make (2 * h.len) (0.0, 0) in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- k;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      h.a.(0) <- h.a.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.len && fst h.a.(l) < fst h.a.(!s) then s := l;
        if r < h.len && fst h.a.(r) < fst h.a.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !s
        end
      done;
      Some top
    end
end

(* The equal-cost first-hop set of [s] toward the destination whose
   distances are [dist]: every up neighbour [h] on a shortest path. *)
let hops_of t dist s =
  if dist.(s) = infinity then []
  else
    List.filter_map
      (fun (h, l) ->
        if l.up && approx_eq dist.(s) (l.lat +. dist.(h)) then Some h else None)
      t.adj.(s)

let build_table t d =
  t.c_sssp_runs <- t.c_sssp_runs + 1;
  let dist = Array.make t.n infinity in
  let settled = Array.make t.n false in
  dist.(d) <- 0.0;
  let heap = Heap.create () in
  Heap.push heap (0.0, d);
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (dx, x) ->
      if not settled.(x) then begin
        settled.(x) <- true;
        List.iter
          (fun (y, l) ->
            if l.up && not settled.(y) then begin
              let cand = dx +. l.lat in
              if cand < dist.(y) then begin
                dist.(y) <- cand;
                Heap.push heap (cand, y)
              end
            end)
          t.adj.(x)
      end;
      drain ()
  in
  drain ();
  let hops = Array.init t.n (fun s -> if s = d then [] else hops_of t dist s) in
  { dist; hops }

let table t d =
  match t.routes.(d) with
  | Some rt -> rt
  | None ->
    let rt = build_table t d in
    t.routes.(d) <- Some rt;
    rt

let build_all_routes t =
  for d = 0 to t.n - 1 do
    ignore (table t d)
  done

let routed_pairs t =
  let built = Array.fold_left (fun acc r -> if r = None then acc else acc + 1) 0 t.routes in
  built * t.n

let stats t =
  {
    sssp_runs = t.c_sssp_runs;
    repairs = t.c_repairs;
    pairs_touched = t.c_pairs_touched;
    flaps = t.c_flaps;
  }

(* ---------- incremental repair ----------

   Ramalingam–Reps-style dynamic SSSP, per cached destination table.

   Deletion: the removed link is on [d]'s shortest-path DAG in at most
   one direction (from the farther endpoint).  Dropping the hop there is
   often the whole repair; only when that empties the endpoint's hop set
   does its distance actually change, and the affected region — every
   source whose paths ALL funnelled through the link — is discovered by
   walking the DAG backwards, then re-settled by a multi-source Dijkstra
   seeded from the unaffected boundary.

   Insertion: at most one endpoint can strictly improve; improvements
   propagate by an ordinary Dijkstra seeded there, and sources adjacent
   to the improved region may gain equal-cost hops without their
   distance moving.  Sources outside the affected/improved region are
   never visited, which is what keeps a flap's cost proportional to the
   damage, not the fleet. *)

let remove_hop hops x ~hop = hops.(x) <- List.filter (fun h -> h <> hop) hops.(x)

let repair_delete t d (rt : rt) l =
  let far, near =
    if Float.is_finite rt.dist.(l.la) && approx_eq rt.dist.(l.la) (l.lat +. rt.dist.(l.lb))
    then (l.la, l.lb)
    else if
      Float.is_finite rt.dist.(l.lb) && approx_eq rt.dist.(l.lb) (l.lat +. rt.dist.(l.la))
    then (l.lb, l.la)
    else (-1, -1)
  in
  if far >= 0 && far <> d then begin
    t.c_repairs <- t.c_repairs + 1;
    remove_hop rt.hops far ~hop:near;
    t.c_pairs_touched <- t.c_pairs_touched + 1;
    if rt.hops.(far) = [] then begin
      (* Affected region: sources whose every shortest path used the
         link.  x joins when its hop set empties. *)
      let affected = Array.make t.n false in
      affected.(far) <- true;
      let stack = ref [ far ] in
      let members = ref [ far ] in
      while !stack <> [] do
        let x = List.hd !stack in
        stack := List.tl !stack;
        List.iter
          (fun (y, m) ->
            if
              m.up && (not affected.(y)) && y <> d
              && Float.is_finite rt.dist.(y)
              && approx_eq rt.dist.(y) (m.lat +. rt.dist.(x))
            then begin
              remove_hop rt.hops y ~hop:x;
              t.c_pairs_touched <- t.c_pairs_touched + 1;
              if rt.hops.(y) = [] then begin
                affected.(y) <- true;
                stack := y :: !stack;
                members := y :: !members
              end
            end)
          t.adj.(x)
      done;
      (* Re-settle the region from its unaffected boundary. *)
      let heap = Heap.create () in
      List.iter
        (fun x ->
          rt.dist.(x) <- infinity;
          List.iter
            (fun (z, m) ->
              if m.up && not affected.(z) then begin
                let cand = m.lat +. rt.dist.(z) in
                if cand < infinity then Heap.push heap (cand, x)
              end)
            t.adj.(x))
        !members;
      let rec drain () =
        match Heap.pop heap with
        | None -> ()
        | Some (dx, x) ->
          if dx < rt.dist.(x) then begin
            rt.dist.(x) <- dx;
            List.iter
              (fun (y, m) ->
                if m.up && affected.(y) then begin
                  let cand = dx +. m.lat in
                  if cand < rt.dist.(y) then Heap.push heap (cand, y)
                end)
              t.adj.(x)
          end;
          drain ()
      in
      drain ();
      List.iter (fun x -> rt.hops.(x) <- hops_of t rt.dist x) !members
    end
  end

let repair_insert t d (rt : rt) l =
  let consider x y =
    (* Path x -> y -> d through the revived link. *)
    if Float.is_finite rt.dist.(y) then begin
      let cand = l.lat +. rt.dist.(y) in
      if approx_lt cand rt.dist.(x) then Some cand
      else begin
        if approx_eq cand rt.dist.(x) && not (List.mem y rt.hops.(x)) then begin
          t.c_repairs <- t.c_repairs + 1;
          rt.hops.(x) <- List.sort compare (y :: rt.hops.(x));
          t.c_pairs_touched <- t.c_pairs_touched + 1
        end;
        None
      end
    end
    else None
  in
  let seed =
    match consider l.la l.lb with
    | Some cand -> Some (l.la, cand)
    | None -> (
      match consider l.lb l.la with
      | Some cand -> Some (l.lb, cand)
      | None -> None)
  in
  match seed with
  | None -> ()
  | Some (x0, cand0) ->
    t.c_repairs <- t.c_repairs + 1;
    let improved = Array.make t.n false in
    let members = ref [] in
    let heap = Heap.create () in
    Heap.push heap (cand0, x0);
    let rec drain () =
      match Heap.pop heap with
      | None -> ()
      | Some (dx, x) ->
        if approx_lt dx rt.dist.(x) then begin
          rt.dist.(x) <- dx;
          if not improved.(x) then begin
            improved.(x) <- true;
            members := x :: !members
          end;
          List.iter
            (fun (y, m) ->
              if m.up && y <> d then begin
                let cand = dx +. m.lat in
                if approx_lt cand rt.dist.(y) then Heap.push heap (cand, y)
              end)
            t.adj.(x)
        end;
        drain ()
    in
    drain ();
    (* Improved sources get fresh hop sets; their unimproved neighbours
       may have gained an equal-cost hop into the improved region. *)
    List.iter
      (fun x ->
        rt.hops.(x) <- hops_of t rt.dist x;
        t.c_pairs_touched <- t.c_pairs_touched + 1)
      !members;
    List.iter
      (fun x ->
        List.iter
          (fun (y, m) ->
            if m.up && (not improved.(y)) && y <> d && Float.is_finite rt.dist.(y)
            then
              if
                approx_eq rt.dist.(y) (m.lat +. rt.dist.(x))
                && not (List.mem x rt.hops.(y))
              then begin
                rt.hops.(y) <- List.sort compare (x :: rt.hops.(y));
                t.c_pairs_touched <- t.c_pairs_touched + 1
              end)
          t.adj.(x))
      !members

let apply_flap t l ~up =
  t.c_flaps <- t.c_flaps + 1;
  l.up <- up;
  (* Only already-built tables need repair; lazy destinations are free. *)
  for d = 0 to t.n - 1 do
    match t.routes.(d) with
    | None -> ()
    | Some rt -> if up then repair_insert t d rt l else repair_delete t d rt l
  done

let set_link t ~a ~b ~up =
  check t "set_link" a;
  check t "set_link" b;
  match Hashtbl.find_opt t.link_tbl (key a b) with
  | None -> false
  | Some l -> if l.up = up then false else (apply_flap t l ~up; true)

let transition_incident t ~sw ~up =
  check t (if up then "restore" else "isolate") sw;
  List.fold_left
    (fun acc (_, l) -> if l.up <> up then (apply_flap t l ~up; acc + 1) else acc)
    0 t.adj.(sw)

let isolate t ~sw = transition_incident t ~sw ~up:false
let restore t ~sw = transition_incident t ~sw ~up:true

(* ---------- routing queries ---------- *)

let connected t ~src ~dst =
  check t "connected" src;
  check t "connected" dst;
  src = dst || (table t dst).dist.(src) < infinity

let latency t ~src ~dst =
  check t "latency" src;
  check t "latency" dst;
  if src = dst then 0.0
  else
    let d = (table t dst).dist.(src) in
    if d = infinity then invalid_arg "Topology.latency: unreachable";
    d

let next_hops t ~src ~dst =
  check t "next_hops" src;
  check t "next_hops" dst;
  if src = dst then [] else (table t dst).hops.(src)

let next_hop t ~src ~dst =
  match next_hops t ~src ~dst with [] -> None | h :: _ -> Some h

(* ---------- Floyd–Warshall oracle ---------- *)

let all_pairs_reference t =
  let n = t.n in
  let dist = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0.0 else infinity)) in
  Array.iter
    (fun l ->
      if l.up && l.lat < dist.(l.la).(l.lb) then begin
        dist.(l.la).(l.lb) <- l.lat;
        dist.(l.lb).(l.la) <- l.lat
      end)
    t.links;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.(i).(k) +. dist.(k).(j) in
        if via < dist.(i).(j) then dist.(i).(j) <- via
      done
    done
  done;
  dist

(* ---------- client homing ---------- *)

let home t ~client sw =
  check t "home" sw;
  Hashtbl.replace t.homes client sw

let home_of t ~client = Hashtbl.find_opt t.homes client
