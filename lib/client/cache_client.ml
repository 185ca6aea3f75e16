module Cache = Activermt_apps.Cache
module Kv = Workload.Kv

let vflags = { Activermt.Packet.no_flags with virtual_addressing = true }

type t = {
  fid : Activermt.Packet.fid;
  granted : Synthesis.granted;
  n_buckets : int;
  query_program : Activermt.Program.t;
  populate_program : Activermt.Program.t;
}

let create params ~policy ~fid ~regions =
  match Synthesis.match_response params ~policy Cache.service regions with
  | Error _ as e -> e
  | Ok granted -> (
    match Synthesis.programs Cache.service granted with
    | [ query_program; populate_program ] ->
      Ok
        {
          fid;
          granted;
          n_buckets = Synthesis.min_access_words granted;
          query_program;
          populate_program;
        }
    | _ -> Error "cache service must have exactly two programs")

let granted t = t.granted
let n_buckets t = t.n_buckets

let bucket_of_key t (k : Kv.key) =
  Cache.bucket_of_key ~capacity:t.n_buckets ~key0:k.Kv.k0 ~key1:k.Kv.k1

let query_packet t ~seq (k : Kv.key) =
  let args =
    Cache.query_args ~bucket:(bucket_of_key t k) ~key0:k.Kv.k0 ~key1:k.Kv.k1
  in
  Activermt.Packet.exec ~flags:vflags ~fid:t.fid ~seq ~args t.query_program

let populate_packet t ~seq (k : Kv.key) ~value =
  let args =
    Cache.populate_args ~bucket:(bucket_of_key t k) ~key0:k.Kv.k0 ~key1:k.Kv.k1
      ~value
  in
  Activermt.Packet.exec ~flags:vflags ~fid:t.fid ~seq ~args t.populate_program

let plan_population t ~objects =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (k, _v) ->
      let b = bucket_of_key t k in
      if Hashtbl.mem seen b then false
      else begin
        Hashtbl.add seen b ();
        true
      end)
    objects
