module Hh = Activermt_apps.Heavy_hitter
module Kv = Workload.Kv
module Mutant = Activermt_compiler.Mutant

let vflags = { Activermt.Packet.no_flags with virtual_addressing = true }

type t = {
  fid : Activermt.Packet.fid;
  granted : Synthesis.granted;
  program : Activermt.Program.t;
  n_slots : int;
}

let create params ~policy ~fid ~regions =
  match Synthesis.match_response params ~policy Hh.service regions with
  | Error _ as e -> e
  | Ok granted -> (
    match Synthesis.programs Hh.service granted with
    | [ program ] ->
      let n_slots =
        granted.Synthesis.access_regions.(Hh.threshold_access)
          .Activermt.Packet.n_words
      in
      Ok { fid; granted; program; n_slots }
    | _ -> Error "heavy-hitter service must have exactly one program")

let granted t = t.granted
let n_slots t = t.n_slots

let slot_of_key t (k : Kv.key) =
  if t.n_slots <= 0 then 0 else Rmt.Crc.crc32c_2 k.Kv.k0 k.Kv.k1 mod t.n_slots

let monitor_packet t ~seq (k : Kv.key) =
  let args = Hh.args ~key0:k.Kv.k0 ~key1:k.Kv.k1 ~slot:(slot_of_key t k) in
  Activermt.Packet.exec ~flags:vflags ~fid:t.fid ~seq ~args t.program

let stage_of_access t i = t.granted.Synthesis.mutant.Mutant.stages.(i)
let threshold_stage t = stage_of_access t Hh.threshold_access
let key0_stage t = stage_of_access t Hh.key0_access
let key1_stage t = stage_of_access t Hh.key1_access

let frequent_items ~thresholds ~key0s ~key1s =
  let n = min (Array.length thresholds) (min (Array.length key0s) (Array.length key1s)) in
  let items = ref [] in
  for i = 0 to n - 1 do
    if thresholds.(i) > 0 then
      items := ({ Kv.k0 = key0s.(i); k1 = key1s.(i) }, thresholds.(i)) :: !items
  done;
  List.sort (fun (_, a) (_, b) -> compare b a) !items
