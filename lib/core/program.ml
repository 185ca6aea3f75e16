type line = { instr : Instr.t; label : Instr.label option }
type t = { name : string; lines : line array }

let v ?(name = "anon") lines = { name; lines = Array.of_list lines }
let of_array ~name lines = { name; lines }
let line ?label instr = { instr; label }
let plain instrs = List.map (fun i -> { instr = i; label = None }) instrs
let length t = Array.length t.lines

type error =
  | Backward_or_missing_label of { at : int; target : Instr.label }
  | Duplicate_label of Instr.label
  | Embedded_eof of int
  | Unreachable_after_return of int

let error_to_string = function
  | Backward_or_missing_label { at; target } ->
    Printf.sprintf "instruction %d jumps to label L%d, which is not defined later in the program"
      at target
  | Duplicate_label l -> Printf.sprintf "label L%d is defined more than once" l
  | Embedded_eof i -> Printf.sprintf "EOF in the middle of the program at %d" i
  | Unreachable_after_return i ->
    Printf.sprintf "unconditional RETURN at %d is not the last instruction" i

let validate t =
  let n = Array.length t.lines in
  let seen = Hashtbl.create 8 in
  let result = ref (Ok t) in
  let fail e = if !result = Ok t then result := Error e in
  Array.iteri
    (fun i l ->
      (match l.label with
      | Some lab ->
        if Hashtbl.mem seen lab then fail (Duplicate_label lab)
        else Hashtbl.add seen lab i
      | None -> ());
      if l.instr = Instr.Eof && i < n - 1 then fail (Embedded_eof i))
    t.lines;
  Array.iteri
    (fun i l ->
      match Instr.branch_target l.instr with
      | None -> ()
      | Some target -> (
        match Hashtbl.find_opt seen target with
        | Some j when j > i -> ()
        | Some _ | None -> fail (Backward_or_missing_label { at = i; target })))
    t.lines;
  (* A RETURN not guarded by a branch makes everything after it dead code,
     except trailing EOF/NOP padding used by mutants. *)
  let reachable_targets =
    Array.to_list t.lines
    |> List.filter_map (fun l -> Instr.branch_target l.instr)
  in
  Array.iteri
    (fun i l ->
      if l.instr = Instr.Return && i < n - 1 then begin
        let tail = Array.sub t.lines (i + 1) (n - i - 1) in
        let tail_live =
          Array.exists
            (fun l' ->
              match l'.label with
              | Some lab -> List.mem lab reachable_targets
              | None -> false)
            tail
        in
        let tail_padding =
          Array.for_all (fun l' -> l'.instr = Instr.Nop || l'.instr = Instr.Eof) tail
        in
        if (not tail_live) && not tail_padding then fail (Unreachable_after_return i)
      end)
    t.lines;
  !result

let memory_access_positions t =
  let acc = ref [] in
  Array.iteri
    (fun i l -> if Instr.is_memory_access l.instr then acc := i :: !acc)
    t.lines;
  List.rev !acc

let position_of_first t ~f =
  let n = Array.length t.lines in
  let rec go i =
    if i >= n then None else if f t.lines.(i).instr then Some i else go (i + 1)
  in
  go 0

let rts_position t = position_of_first t ~f:Instr.needs_ingress

let strip_comment s =
  let cut_at idx = String.sub s 0 idx in
  let find_sub sub =
    let ls = String.length sub and n = String.length s in
    let rec go i =
      if i + ls > n then None
      else if String.sub s i ls = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let s = match find_sub "//" with Some i -> cut_at i | None -> s in
  match String.index_opt s ';' with Some i -> cut_at i | None -> s

let parse_line lineno raw =
  let s = String.trim (strip_comment raw) in
  if s = "" then Ok None
  else begin
    (* [Some None]: a label whose digits overflow an int. *)
    let label, body =
      match String.index_opt s ':' with
      | Some i
        when i >= 2
             && (s.[0] = 'L' || s.[0] = 'l')
             && String.for_all
                  (fun c -> c >= '0' && c <= '9')
                  (String.sub s 1 (i - 1)) ->
        ( Some (int_of_string_opt (String.sub s 1 (i - 1))),
          String.sub s (i + 1) (String.length s - i - 1) )
      | _ -> (None, s)
    in
    match (label, Instr.of_mnemonic body) with
    | Some None, _ -> Error (Printf.sprintf "line %d: label out of range" lineno)
    | _, Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
    | label, Ok instr -> Ok (Some { instr; label = Option.join label })
  end

let parse ?(name = "anon") text =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
      match parse_line lineno raw with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some l) -> go (lineno + 1) (l :: acc) rest
      | Error e -> Error e)
  in
  match go 1 [] (String.split_on_char '\n' text) with
  | Error e -> Error e
  | Ok lines -> (
    let t = { name; lines = Array.of_list lines } in
    match validate t with
    | Ok t -> Ok t
    | Error e -> Error (error_to_string e))

let to_assembly t =
  let buf = Buffer.create 256 in
  Array.iter
    (fun l ->
      (match l.label with
      | Some lab -> Buffer.add_string buf (Printf.sprintf "L%d: " lab)
      | None -> ());
      Buffer.add_string buf (Instr.mnemonic l.instr);
      Buffer.add_char buf '\n')
    t.lines;
  Buffer.contents buf

let equal a b =
  Array.length a.lines = Array.length b.lines
  && Array.for_all2
       (fun la lb -> Instr.equal la.instr lb.instr && la.label = lb.label)
       a.lines b.lines
