type t = {
  table_entry_update_s : float;
  app_install_s : float;
  snapshot_word_s : float;
  notify_rtt_s : float;
  digest_s : float;
  batch_setup_s : float;
  batched_entry_update_s : float;
}

let default =
  {
    table_entry_update_s = 2.5e-4;
    app_install_s = 2.0e-2;
    snapshot_word_s = 1.0e-7;
    notify_rtt_s = 2.0e-4;
    digest_s = 1.0e-4;
    (* RBFRT-style batched writes: one session/flush per batch at roughly
       an app-install's cost, then each entry rides the batch at ~25x less
       than a serial per-entry update. *)
    batch_setup_s = 2.0e-2;
    batched_entry_update_s = 1.0e-5;
  }

let p4_compile_s = 28.79
let p4_reprovision_blackout_s = 0.05

let degrade t ~slowdown =
  if slowdown < 1.0 then invalid_arg "Cost_model.degrade: slowdown must be >= 1";
  {
    t with
    table_entry_update_s = t.table_entry_update_s *. slowdown;
    app_install_s = t.app_install_s *. slowdown;
    batch_setup_s = t.batch_setup_s *. slowdown;
    batched_entry_update_s = t.batched_entry_update_s *. slowdown;
  }

type breakdown = {
  allocation_s : float;
  table_update_s : float;
  snapshot_s : float;
  notify_s : float;
}

let total b = b.allocation_s +. b.table_update_s +. b.snapshot_s +. b.notify_s
let modeled b = b.table_update_s +. b.snapshot_s +. b.notify_s

let estimated_entries ~logical_stages ~apps = 2 * (logical_stages + 3) * apps

let breakdown t ~allocation_s ~entries_updated ~apps_touched ~words_snapshotted ~notifications =
  {
    allocation_s;
    table_update_s =
      (float_of_int entries_updated *. t.table_entry_update_s)
      +. (float_of_int apps_touched *. t.app_install_s);
    snapshot_s = float_of_int words_snapshotted *. t.snapshot_word_s;
    notify_s = t.digest_s +. (float_of_int notifications *. t.notify_rtt_s);
  }

let breakdown_batched t ~allocation_s ~entries_updated ~words_snapshotted ~notifications =
  {
    allocation_s;
    table_update_s =
      t.batch_setup_s
      +. (float_of_int entries_updated *. t.batched_entry_update_s);
    snapshot_s = float_of_int words_snapshotted *. t.snapshot_word_s;
    (* The async provision queue overlaps client notification round trips
       with the next epoch's scoring, so an epoch pays one digest and (at
       most) one RTT of un-overlapped latency regardless of how many
       clients it notifies. *)
    notify_s =
      t.digest_s +. (if notifications > 0 then t.notify_rtt_s else 0.0);
  }
