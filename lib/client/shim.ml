type state = Idle | Negotiating | Operational | Memory_management

let state_to_string = function
  | Idle -> "idle"
  | Negotiating -> "negotiating"
  | Operational -> "operational"
  | Memory_management -> "memory-management"

type t = {
  fid : Activermt.Packet.fid;
  mutable state : state;
  mutable seq : int;
}

let create ~fid = { fid; state = Idle; seq = 0 }
let state t = t.state
let seq t = t.seq

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

type event =
  | Request_sent
  | Response_granted
  | Response_rejected
  | Realloc_notified
  | Extraction_done
  | Released

let event_to_string = function
  | Request_sent -> "request-sent"
  | Response_granted -> "response-granted"
  | Response_rejected -> "response-rejected"
  | Realloc_notified -> "realloc-notified"
  | Extraction_done -> "extraction-done"
  | Released -> "released"

let transition t event =
  let next =
    match (t.state, event) with
    | Idle, Request_sent -> Some Negotiating
    | Negotiating, Response_granted -> Some Operational
    | Negotiating, Response_rejected -> Some Idle
    | Operational, Realloc_notified -> Some Memory_management
    | Memory_management, Extraction_done -> Some Operational
    | Operational, Released -> Some Idle
    | (Idle | Negotiating | Operational | Memory_management), _ -> None
  in
  match next with
  | Some s ->
    t.state <- s;
    Ok s
  | None ->
    Error
      (Printf.sprintf "illegal transition: %s in state %s"
         (event_to_string event) (state_to_string t.state))

let can_transmit t = t.state = Operational
