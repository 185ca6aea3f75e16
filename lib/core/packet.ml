type fid = int

type flags = { elastic : bool; virtual_addressing : bool; ack : bool }

let no_flags = { elastic = false; virtual_addressing = false; ack = false }

type access_constraint = { position : int; min_gap : int; demand_blocks : int }

type request = {
  prog_length : int;
  rts_position : int option;
  accesses : access_constraint list;
}

type region = { start_word : int; n_words : int }
type response_status = Granted | Rejected

type response = { status : response_status; regions : region option array }

type payload =
  | Request of request
  | Response of response
  | Exec of { args : int array; program : Program.t }
  | Bare

type t = { fid : fid; seq : int; flags : flags; payload : payload }

let exec ~flags ~fid ~seq ~args program =
  let n = Array.length args in
  if n > 4 then invalid_arg "Packet.exec: more than 4 args";
  let args =
    if n = 4 then args
    else begin
      let padded = Array.make 4 0 in
      Array.blit args 0 padded 0 n;
      padded
    end
  in
  { fid; seq; flags; payload = Exec { args; program } }

let strip_executed t ~upto =
  match t.payload with
  | Exec { args; program } when upto > 0 ->
    let n = Program.length program in
    let keep = max 0 (n - upto) in
    let lines =
      Array.to_list (Array.sub program.Program.lines (n - keep) keep)
    in
    let program = Program.v ~name:program.Program.name lines in
    { t with payload = Exec { args; program } }
  | Exec _ | Request _ | Response _ | Bare -> t

let initial_header_bytes = 10
let args_header_bytes = 16
let request_header_bytes = 24
let response_header_bytes ~stages = 1 + (8 * stages)

let max_request_accesses = 8

let decodable_request r =
  let byte v = v >= 0 && v <= 0xff in
  let rec accesses n = function
    | [] -> true
    | a :: rest ->
      n < max_request_accesses && byte a.position && byte a.min_gap
      && byte a.demand_blocks
      && accesses (n + 1) rest
  in
  byte r.prog_length
  && (match r.rts_position with None -> true | Some p -> p >= 0 && p < 0xff)
  && accesses 0 r.accesses

let ptype_code = function
  | Request _ -> 0
  | Response _ -> 1
  | Exec _ -> 2
  | Bare -> 3

let wire_size ~stages t =
  initial_header_bytes
  +
  match t.payload with
  | Request _ -> request_header_bytes
  | Response _ -> response_header_bytes ~stages
  | Exec { program; _ } -> args_header_bytes + (2 * (Program.length program + 1))
  | Bare -> 0

let set_u16 b off v =
  Bytes.set_uint8 b off (v land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xff)

let get_u16 b off = Bytes.get_uint8 b off lor (Bytes.get_uint8 b (off + 1) lsl 8)

let set_u24 b off v =
  Bytes.set_uint8 b off (v land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 16) land 0xff)

let get_u24 b off =
  Bytes.get_uint8 b off
  lor (Bytes.get_uint8 b (off + 1) lsl 8)
  lor (Bytes.get_uint8 b (off + 2) lsl 16)

let set_u32 b off v =
  set_u16 b off (v land 0xffff);
  set_u16 b (off + 2) ((v lsr 16) land 0xffff)

let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

(* Initial header layout (10 bytes):
   fid:2  type+flags:1  seq:4  prog_len:1  rts_pos+1:1  n_accesses:1
   The trailing three bytes are meaningful for requests and zero
   otherwise. *)
let encode_initial b t =
  set_u16 b 0 (t.fid land 0xffff);
  let fl =
    ptype_code t.payload
    lor (if t.flags.elastic then 0x04 else 0)
    lor (if t.flags.virtual_addressing then 0x08 else 0)
    lor if t.flags.ack then 0x10 else 0
  in
  Bytes.set_uint8 b 2 fl;
  set_u32 b 3 t.seq;
  match t.payload with
  | Request r ->
    Bytes.set_uint8 b 7 (r.prog_length land 0xff);
    Bytes.set_uint8 b 8
      (match r.rts_position with Some p -> (p + 1) land 0xff | None -> 0);
    Bytes.set_uint8 b 9 (List.length r.accesses)
  | Response _ | Exec _ | Bare ->
    Bytes.set_uint8 b 7 0;
    Bytes.set_uint8 b 8 0;
    Bytes.set_uint8 b 9 0

let encode t =
  match t.payload with
  | Bare ->
    let b = Bytes.make initial_header_bytes '\000' in
    encode_initial b t;
    b
  | Request r ->
    if List.length r.accesses > max_request_accesses then
      invalid_arg "Packet.encode: more than 8 access constraints";
    let b = Bytes.make (initial_header_bytes + request_header_bytes) '\000' in
    encode_initial b t;
    List.iteri
      (fun i a ->
        let off = initial_header_bytes + (3 * i) in
        Bytes.set_uint8 b off (a.position land 0xff);
        Bytes.set_uint8 b (off + 1) (a.min_gap land 0xff);
        Bytes.set_uint8 b (off + 2) (a.demand_blocks land 0xff))
      r.accesses;
    b
  | Response r ->
    let stages = Array.length r.regions in
    let b =
      Bytes.make (initial_header_bytes + response_header_bytes ~stages) '\000'
    in
    encode_initial b t;
    Bytes.set_uint8 b initial_header_bytes
      (match r.status with Granted -> 1 | Rejected -> 0);
    Array.iteri
      (fun s reg ->
        let off = initial_header_bytes + 1 + (8 * s) in
        match reg with
        | None -> ()
        | Some { start_word; n_words } ->
          set_u24 b off start_word;
          set_u24 b (off + 3) n_words;
          Bytes.set_uint8 b (off + 6) 1)
      r.regions;
    b
  | Exec { args; program } ->
    let prog_bytes = Wire.encode_program program in
    let b =
      Bytes.make
        (initial_header_bytes + args_header_bytes + Bytes.length prog_bytes)
        '\000'
    in
    encode_initial b t;
    Array.iteri (fun i v -> set_u32 b (initial_header_bytes + (4 * i)) v) args;
    Bytes.blit prog_bytes 0 b (initial_header_bytes + args_header_bytes)
      (Bytes.length prog_bytes);
    b

(* Stages in a decoded allocation response. *)
let response_stages = 20

let decode b =
  if Bytes.length b < initial_header_bytes then Error "short packet"
  else begin
    let fid = get_u16 b 0 in
    let fl = Bytes.get_uint8 b 2 in
    let seq = get_u32 b 3 in
    let flags =
      {
        elastic = fl land 0x04 <> 0;
        virtual_addressing = fl land 0x08 <> 0;
        ack = fl land 0x10 <> 0;
      }
    in
    let finish payload = Ok { fid; seq; flags; payload } in
    match fl land 0x03 with
    | 0 ->
      if Bytes.length b < initial_header_bytes + request_header_bytes then
        Error "short allocation request"
      else begin
        let prog_length = Bytes.get_uint8 b 7 in
        let rts_position =
          match Bytes.get_uint8 b 8 with 0 -> None | p -> Some (p - 1)
        in
        let n = Bytes.get_uint8 b 9 in
        if n > max_request_accesses then Error "too many access constraints"
        else begin
          let access i =
            let off = initial_header_bytes + (3 * i) in
            {
              position = Bytes.get_uint8 b off;
              min_gap = Bytes.get_uint8 b (off + 1);
              demand_blocks = Bytes.get_uint8 b (off + 2);
            }
          in
          finish (Request { prog_length; rts_position; accesses = List.init n access })
        end
      end
    | 1 ->
      if
        Bytes.length b
        < initial_header_bytes + response_header_bytes ~stages:response_stages
      then Error "short allocation response"
      else begin
        let status =
          if Bytes.get_uint8 b initial_header_bytes = 1 then Granted else Rejected
        in
        let region s =
          let off = initial_header_bytes + 1 + (8 * s) in
          if Bytes.get_uint8 b (off + 6) = 0 then None
          else Some { start_word = get_u24 b off; n_words = get_u24 b (off + 3) }
        in
        finish (Response { status; regions = Array.init response_stages region })
      end
    | 2 ->
      if Bytes.length b < initial_header_bytes + args_header_bytes then
        Error "short exec packet"
      else begin
        let args = Array.init 4 (fun i -> get_u32 b (initial_header_bytes + (4 * i))) in
        match
          Wire.decode_program b ~off:(initial_header_bytes + args_header_bytes)
        with
        | Error e -> Error e
        | Ok (program, _marks, _end) -> finish (Exec { args; program })
      end
    | _ -> finish Bare
  end
