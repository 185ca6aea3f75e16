module Lb = Activermt_apps.Cheetah_lb
module Memsync = Activermt_apps.Memsync
module Mutant = Activermt_compiler.Mutant

type t = {
  fid : Activermt.Packet.fid;
  granted : Synthesis.granted;
  syn_program : Activermt.Program.t;
  flow_program : Activermt.Program.t;
}

let vflags = { Activermt.Packet.no_flags with virtual_addressing = true }

let create params ~policy ~fid ~regions =
  match Synthesis.match_response params ~policy Lb.service regions with
  | Error _ as e -> e
  | Ok granted -> (
    match Synthesis.programs Lb.service granted with
    | [ syn_program ] ->
      (* The SYN's cookie HASH sits after the last access, so it is
         shifted by the last access's shift; the flow program must hash on
         the same logical stage. *)
      let shifts = granted.Synthesis.mutant.Mutant.shifts in
      let hash_stage =
        (Lb.syn_hash_position + shifts.(Array.length shifts - 1))
        mod params.Rmt.Params.logical_stages
      in
      Ok
        {
          fid;
          granted;
          syn_program;
          flow_program = Lb.flow_program_for ~hash_stage;
        }
    | _ -> Error "load-balancer service must have exactly one program")

let granted t = t.granted
let access_stages t = t.granted.Synthesis.mutant.Mutant.stages

let pool_write_packets t ~ports =
  let out = ref [] in
  let seq = ref 0 in
  let write ~stage ~index ~value =
    incr seq;
    out :=
      ( !seq,
        Activermt.Packet.exec ~flags:vflags ~fid:t.fid ~seq:!seq
          ~args:(Memsync.write_args ~index ~values:[ value ])
          (Memsync.write_program ~stages:[ stage ]) )
      :: !out;
    true
  in
  Lb.install_pool ~write ~accesses_stages:(access_stages t) ~ports;
  List.rev !out

let syn_packet t ~seq ~salt =
  Activermt.Packet.exec ~flags:vflags ~fid:t.fid ~seq ~args:(Lb.syn_args ~salt)
    t.syn_program

let flow_packet t ~seq ~salt ~cookie =
  Activermt.Packet.exec ~flags:Activermt.Packet.no_flags ~fid:t.fid ~seq
    ~args:(Lb.flow_args ~salt ~cookie) t.flow_program
