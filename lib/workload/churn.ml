type kind = Cache | Heavy_hitter | Load_balancer | Flow_counter | Bloom_filter

let kind_to_string = function
  | Cache -> "cache"
  | Heavy_hitter -> "heavy-hitter"
  | Load_balancer -> "load-balancer"
  | Flow_counter -> "flow-counter"
  | Bloom_filter -> "bloom-filter"

let all_kinds = [| Cache; Heavy_hitter; Load_balancer |]

let extended_kinds =
  [| Cache; Heavy_hitter; Load_balancer; Flow_counter; Bloom_filter |]

type event =
  | Arrive of { fid : int; kind : kind; tenant : int option }
  | Depart of { fid : int }
type epoch = { index : int; events : event list }

type config = { kinds : kind array }

let default_config = { kinds = all_kinds }

let extended_config = { kinds = extended_kinds }

(* Poisson means of the arrivals and departures per epoch. *)
let arrival_mean = 2.0
let departure_mean = 1.0

let generate config ~epochs rng =
  let next_fid = ref 1 in
  let alive = ref [] in
  let epoch index =
    let n_arr = Stdx.Prng.poisson rng ~mean:arrival_mean in
    let n_dep = Stdx.Prng.poisson rng ~mean:departure_mean in
    let arrivals =
      List.init n_arr (fun _ ->
          let fid = !next_fid in
          incr next_fid;
          let kind = Stdx.Prng.choose rng config.kinds in
          alive := fid :: !alive;
          Arrive { fid; kind; tenant = None })
    in
    let departures =
      List.filter_map
        (fun _ ->
          match !alive with
          | [] -> None
          | l ->
            let arr = Array.of_list l in
            let fid = Stdx.Prng.choose rng arr in
            alive := List.filter (fun f -> f <> fid) !alive;
            Some (Depart { fid }))
        (List.init n_dep (fun i -> i))
    in
    { index; events = arrivals @ departures }
  in
  List.init epochs epoch

let arrivals_sequence kind ~n =
  List.init n (fun i ->
      { index = i; events = [ Arrive { fid = i + 1; kind; tenant = None } ] })

let mixed_arrivals ~n rng =
  List.init n (fun i ->
      {
        index = i;
        events =
          [
            Arrive
              { fid = i + 1; kind = Stdx.Prng.choose rng all_kinds; tenant = None };
          ];
      })

type zipf_config = {
  clients : int;
  batch : int;
  resident_target : int;
  exponent : float;
  zipf_kinds : kind array;
  tenant_weights : int array;
}

let default_zipf_config =
  {
    clients = 50_000;
    batch = 64;
    resident_target = 64;
    exponent = 0.99;
    zipf_kinds = extended_kinds;
    tenant_weights = [||];
  }

let zipf_churn config rng =
  if config.clients < 0 then invalid_arg "Churn.zipf_churn: clients < 0";
  if config.batch <= 0 then invalid_arg "Churn.zipf_churn: batch <= 0";
  if config.resident_target < 0 then
    invalid_arg "Churn.zipf_churn: resident_target < 0";
  if Array.length config.zipf_kinds = 0 then
    invalid_arg "Churn.zipf_churn: empty kinds";
  if Array.exists (fun w -> w <= 0) config.tenant_weights then
    invalid_arg "Churn.zipf_churn: tenant weights must be positive";
  let zipf =
    Zipf.create ~exponent:config.exponent
      ~n:(Array.length config.zipf_kinds)
      (Stdx.Prng.split rng)
  in
  (* Tenant labelling draws from its own split stream so enabling tenants
     never perturbs the kind/departure draws, and the no-tenant path makes
     zero extra PRNG calls — byte-identical to the pre-tenant generator. *)
  let draw_tenant =
    if Array.length config.tenant_weights = 0 then fun () -> None
    else begin
      let trng = Stdx.Prng.split rng in
      let total = Array.fold_left ( + ) 0 config.tenant_weights in
      fun () ->
        let r = Stdx.Prng.int trng total in
        let acc = ref 0 and pick = ref 0 in
        (try
           Array.iteri
             (fun i w ->
               acc := !acc + w;
               if r < !acc then begin
                 pick := i;
                 raise Exit
               end)
             config.tenant_weights
         with Exit -> ());
        Some !pick
    end
  in
  (* Swap-remove array of fids assumed alive in the generated sequence so a
     uniform departure is O(1); the consumer's allocator may have rejected
     some of them, which is fine — departures of non-resident fids are
     no-ops downstream. *)
  let alive = ref (Array.make 64 0) in
  let n_alive = ref 0 in
  let push fid =
    if !n_alive = Array.length !alive then begin
      let grown = Array.make (2 * Array.length !alive) 0 in
      Array.blit !alive 0 grown 0 !n_alive;
      alive := grown
    end;
    !alive.(!n_alive) <- fid;
    incr n_alive
  in
  let pop_uniform () =
    let i = Stdx.Prng.int rng !n_alive in
    let fid = !alive.(i) in
    !alive.(i) <- !alive.(!n_alive - 1);
    decr n_alive;
    fid
  in
  let next_fid = ref 1 in
  let remaining = ref config.clients in
  let index = ref 0 in
  let rec next () =
    if !remaining = 0 then Seq.Nil
    else begin
      let n_arr = min config.batch !remaining in
      remaining := !remaining - n_arr;
      let arrivals = ref [] in
      for _ = 1 to n_arr do
        let fid = !next_fid in
        incr next_fid;
        let kind = config.zipf_kinds.(Zipf.sample zipf) in
        push fid;
        arrivals := Arrive { fid; kind; tenant = draw_tenant () } :: !arrivals
      done;
      let departures = ref [] in
      while !n_alive > config.resident_target do
        departures := Depart { fid = pop_uniform () } :: !departures
      done;
      let epoch =
        { index = !index; events = List.rev !arrivals @ List.rev !departures }
      in
      incr index;
      Seq.Cons (epoch, next)
    end
  in
  next
