type t = {
  program : Activermt.Program.t;
  length : int;
  accesses : int array;
  gaps : int array;
  rts : int option;
}

let analyze program =
  let accesses = Array.of_list (Activermt.Program.memory_access_positions program) in
  let gaps =
    Array.mapi
      (fun i a -> if i = 0 then a + 1 else a - accesses.(i - 1))
      accesses
  in
  {
    program;
    length = Activermt.Program.length program;
    accesses;
    gaps;
    rts = Activermt.Program.rts_position program;
  }

let lower_bounds t = Array.map (fun a -> a + 1) t.accesses

let upper_bounds t ~n_stages ~ingress ~max_passes =
  let m = Array.length t.accesses in
  if m = 0 then [||]
  else begin
    let max_pos = n_stages * max_passes in
    let ub = Array.make m 0 in
    let p i = t.accesses.(i) + 1 in
    ub.(m - 1) <- max_pos - (t.length - p (m - 1));
    for i = m - 2 downto 0 do
      ub.(i) <- ub.(i + 1) - t.gaps.(i + 1)
    done;
    (* When confined to a single pass, keep any RTS within the ingress
       pipeline by bounding the total shift (see DESIGN.md: the paper's
       UB = [4 7 11] example for Listing 1). *)
    (match t.rts with
    | Some r when max_passes = 1 && r + 1 <= ingress ->
      let max_shift = ingress - (r + 1) in
      for i = 0 to m - 1 do
        ub.(i) <- min ub.(i) (p i + max_shift)
      done;
      for i = m - 2 downto 0 do
        ub.(i) <- min ub.(i) (ub.(i + 1) - t.gaps.(i + 1))
      done
    | Some _ | None -> ());
    ub
  end

let to_request ~elastic ~demand_blocks t =
  let m = Array.length t.accesses in
  if m > 8 then invalid_arg "Spec.to_request: more than 8 memory accesses";
  if Array.length demand_blocks <> m then
    invalid_arg "Spec.to_request: demand_blocks length mismatch";
  ignore elastic;
  let access i =
    {
      Activermt.Packet.position = t.accesses.(i);
      min_gap = t.gaps.(i);
      demand_blocks = demand_blocks.(i);
    }
  in
  {
    Activermt.Packet.prog_length = t.length;
    rts_position = t.rts;
    accesses = List.init m access;
  }

(* The placeholder program's three kinds of line, shared by every
   request's program. *)
let nop_line = Activermt.Program.line Activermt.Instr.Nop
let access_line = Activermt.Program.line Activermt.Instr.Mem_read
let rts_line = Activermt.Program.line Activermt.Instr.Rts

(* Each access's position and gap into [accesses] and [gaps] from [i]
   on, and its line into [lines] when it falls inside the program. *)
let rec fill_accesses ~accesses ~gaps ~lines i = function
  | [] -> ()
  | (a : Activermt.Packet.access_constraint) :: tl ->
    accesses.(i) <- a.position;
    gaps.(i) <- a.min_gap;
    if a.position >= 0 && a.position < Array.length lines then
      lines.(a.position) <- access_line;
    fill_accesses ~accesses ~gaps ~lines (i + 1) tl

let of_request (r : Activermt.Packet.request) =
  let m = List.length r.accesses in
  let accesses = Array.make m 0 and gaps = Array.make m 0 in
  let lines = Array.make r.prog_length nop_line in
  (* An access wins over the RTS at the same position. *)
  (match r.rts_position with
  | Some i when i >= 0 && i < r.prog_length -> lines.(i) <- rts_line
  | Some _ | None -> ());
  fill_accesses ~accesses ~gaps ~lines 0 r.accesses;
  {
    program = Activermt.Program.of_array ~name:"request" lines;
    length = r.prog_length;
    accesses;
    gaps;
    rts = r.rts_position;
  }
