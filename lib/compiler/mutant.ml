type policy = Most_constrained | Least_constrained

let policy_to_string = function
  | Most_constrained -> "most-constrained"
  | Least_constrained -> "least-constrained"

type t = {
  shifts : int array;
  positions : int array;
  stages : int array;
  passes : int;
  port_recirc : bool;
}

(* "Most constrained" adds no recirculation beyond what the compact
   program already needs; "least constrained" allows one more pass. *)
let base_passes params (spec : Spec.t) =
  let n = params.Rmt.Params.logical_stages in
  max 1 ((spec.Spec.length + n - 1) / n)

(* Most-constrained allows exactly the base passes (no additional
   recirculation); least-constrained allows one extra pass, bounded by
   the device recirculation limit. *)
let max_passes_of_policy params spec = function
  | Most_constrained -> base_passes params spec
  | Least_constrained ->
    min (base_passes params spec + 1) (params.Rmt.Params.recirc_limit + 1)

(* The RTS is shifted by insertions that happen before it, i.e. by the
   shift of the last access at or before its position. *)
let rts_shift (spec : Spec.t) shifts =
  match spec.Spec.rts with
  | None -> 0
  | Some r ->
    let s = ref 0 in
    Array.iteri (fun i a -> if a <= r then s := shifts.(i)) spec.Spec.accesses;
    !s

let build params (spec : Spec.t) shifts =
  let n = params.Rmt.Params.logical_stages in
  let ingress = params.Rmt.Params.ingress_stages in
  let m = Array.length shifts in
  let positions = Array.init m (fun i -> spec.Spec.accesses.(i) + shifts.(i)) in
  let stages = Array.map (fun p -> p mod n) positions in
  let total_len =
    spec.Spec.length + if m = 0 then 0 else shifts.(m - 1)
  in
  let passes = max 1 ((total_len + n - 1) / n) in
  let port_recirc =
    match spec.Spec.rts with
    | None -> false
    | Some r -> (r + rts_shift spec shifts) mod n >= ingress
  in
  { shifts; positions; stages; passes; port_recirc }

let identity spec =
  (* Parameters only affect stage mapping; use defaults for the compact
     placement and recompute under real parameters at enumeration time. *)
  build Rmt.Params.default spec (Array.make (Array.length spec.Spec.accesses) 0)

(* The feasibility region can be huge (hundreds of thousands of
   non-decreasing shift vectors for long recirculating programs), so the
   systematic search is capped at [limit] candidates.  A plain
   lexicographic prefix would only ever vary the last accesses, starving
   the allocator of genuinely different placements, so when the space
   exceeds the cap we take an even stride through the lexicographic
   sequence — deterministic, so the client-side synthesis enumerates the
   exact same candidate list. *)
let dfs ~ub ~lb ~m ~visit =
  let shifts = Array.make m 0 in
  let rec go i prev_shift =
    if i = m then visit shifts
    else begin
      let max_shift = ub.(i) - lb.(i) in
      let s = ref prev_shift in
      let continue = ref true in
      while !continue && !s <= max_shift do
        shifts.(i) <- !s;
        continue := go (i + 1) !s;
        incr s
      done;
      !continue
    end
  in
  if m = 0 then ignore (visit [||]) else ignore (go 0 0)

let hard_cap = 2_000_000

let bounds params policy (spec : Spec.t) =
  let n = params.Rmt.Params.logical_stages in
  let ingress = params.Rmt.Params.ingress_stages in
  let max_passes = max_passes_of_policy params spec policy in
  let ub = Spec.upper_bounds spec ~n_stages:n ~ingress ~max_passes in
  let lb = Spec.lower_bounds spec in
  (ub, lb)

(* Materialize every stride-th candidate of the lexicographic sequence. *)
let materialize ~stride ~limit params spec ~ub ~lb ~m =
  let acc = ref [] in
  let idx = ref 0 in
  let kept = ref 0 in
  dfs ~ub ~lb ~m ~visit:(fun shifts ->
      if !idx mod stride = 0 then begin
        acc := build params spec (Array.copy shifts) :: !acc;
        incr kept
      end;
      incr idx;
      !idx < hard_cap && !kept < limit);
  List.rev !acc

(* The seed's two-pass enumeration, kept verbatim as the oracle the
   property tests hold the single-pass version to. *)
let enumerate_reference ?(limit = 4096) params policy (spec : Spec.t) =
  let m = Array.length spec.Spec.accesses in
  if m = 0 then [ build params spec [||] ]
  else begin
    let ub, lb = bounds params policy spec in
    (* Pass 1: count the feasible placements (no allocation). *)
    let total = ref 0 in
    dfs ~ub ~lb ~m ~visit:(fun _ ->
        incr total;
        !total < hard_cap);
    let total = !total in
    let stride = if total <= limit then 1 else (total + limit - 1) / limit in
    (* Pass 2: materialize every stride-th candidate. *)
    materialize ~stride ~limit params spec ~ub ~lb ~m
  end

(* The DFS tree — and so the feasible-space count — depends only on the
   per-access shift headroom [ub - lb], so counts are memoized on that
   shape across allocator instances (the evaluation harness builds a fresh
   allocator per trial but replays the same programs). *)
let count_memo : (int array, int) Hashtbl.t = Hashtbl.create 64

let shape_of ~ub ~lb ~m = Array.init m (fun i -> ub.(i) - lb.(i))

(* Cold enumerations buffer candidates while counting so spaces up to
   [keep_cap] need no second DFS walk; bigger spaces fall back to a
   materialize pass with the now-known stride (and the memoized count makes
   every later enumeration of the shape single-pass). *)
let keep_cap = 65_536

let enumerate ?(limit = 4096) params policy (spec : Spec.t) =
  let m = Array.length spec.Spec.accesses in
  if m = 0 then [ build params spec [||] ]
  else begin
    let ub, lb = bounds params policy spec in
    let shape = shape_of ~ub ~lb ~m in
    match Hashtbl.find_opt count_memo shape with
    | Some total ->
      let stride = if total <= limit then 1 else (total + limit - 1) / limit in
      materialize ~stride ~limit params spec ~ub ~lb ~m
    | None ->
      let cap = max limit keep_cap in
      let buf = ref [] in
      let buffered = ref 0 in
      let overflow = ref false in
      let total = ref 0 in
      dfs ~ub ~lb ~m ~visit:(fun shifts ->
          if not !overflow then begin
            if !buffered < cap then begin
              buf := Array.copy shifts :: !buf;
              incr buffered
            end
            else begin
              overflow := true;
              buf := []
            end
          end;
          incr total;
          !total < hard_cap);
      let total = !total in
      Hashtbl.replace count_memo shape total;
      let stride = if total <= limit then 1 else (total + limit - 1) / limit in
      if !overflow then materialize ~stride ~limit params spec ~ub ~lb ~m
      else begin
        (* Single pass: the buffer holds the whole space in reverse
           lexicographic order; keep every stride-th, as pass 2 would. *)
        let out = ref [] in
        List.iteri
          (fun rev_i shifts ->
            let idx = total - 1 - rev_i in
            if idx mod stride = 0 && idx / stride < limit then
              out := build params spec shifts :: !out)
          !buf;
        !out
      end
  end

let count params policy spec = List.length (enumerate params policy spec)

let synthesize (spec : Spec.t) t =
  let m = Array.length t.shifts in
  let insert_before = Hashtbl.create 8 in
  for i = 0 to m - 1 do
    let prev = if i = 0 then 0 else t.shifts.(i - 1) in
    let nops = t.shifts.(i) - prev in
    if nops > 0 then Hashtbl.replace insert_before spec.Spec.accesses.(i) nops
  done;
  let out = ref [] in
  Array.iteri
    (fun idx line ->
      (match Hashtbl.find_opt insert_before idx with
      | Some nops ->
        for _ = 1 to nops do
          out := Activermt.Program.line Activermt.Instr.Nop :: !out
        done
      | None -> ());
      out := line :: !out)
    spec.Spec.program.Activermt.Program.lines;
  Activermt.Program.v
    ~name:(spec.Spec.program.Activermt.Program.name ^ "+mutant")
    (List.rev !out)

(* Accesses that land on the same stage (recirculating programs) share
   the app's single region there, so the stage needs the largest of
   their demands — e.g. the heavy hitter's threshold read and write.
   Programs carry at most 8 accesses, so the merge is a pair of flat
   arrays with insertion sort: no hashtable, no list, suitable for the
   allocator's per-mutant scoring loop. *)
let demand_by_stage_arrays t ~demand_blocks =
  let m = Array.length t.stages in
  if Array.length demand_blocks <> m then
    invalid_arg "Mutant.demand_by_stage: demand length mismatch";
  let stages = Array.make m 0 in
  let demands = Array.make m 0 in
  let k = ref 0 in
  for i = 0 to m - 1 do
    let s = t.stages.(i) in
    let j = ref (-1) in
    for q = 0 to !k - 1 do
      if stages.(q) = s then j := q
    done;
    if !j >= 0 then demands.(!j) <- max demands.(!j) demand_blocks.(i)
    else begin
      (* insert keeping [stages] sorted *)
      let p = ref !k in
      while !p > 0 && stages.(!p - 1) > s do
        stages.(!p) <- stages.(!p - 1);
        demands.(!p) <- demands.(!p - 1);
        decr p
      done;
      stages.(!p) <- s;
      demands.(!p) <- demand_blocks.(i);
      incr k
    end
  done;
  if !k = m then (stages, demands)
  else (Array.sub stages 0 !k, Array.sub demands 0 !k)

let demand_by_stage t ~demand_blocks =
  let stages, demands = demand_by_stage_arrays t ~demand_blocks in
  Array.to_list (Array.mapi (fun i s -> (s, demands.(i))) stages)
