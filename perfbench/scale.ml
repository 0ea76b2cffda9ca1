(* Workload "scale_churn": the 74,516-AS / 666,327-link Internet.
   Generate it, run a 64-origin batched sweep, save the warm state of
   8 tracked origins as a v2 snapshot, reload it into a dynamics
   engine, then apply a seeded sequence of link failures and
   restorations until the run time is spent.

   Link events come in rounds of five, generated here from the seed
   and handed to the engine as timeline events:
     down <tree link A>, down <random link>, down <tree link B>,
     down <random link>, up A
   A tree link carries some tracked origin's selected route (a real
   reroute); a random link is uniform over the live links and usually
   carries no tracked route.  Restorations currently re-derive nearly
   every AS and cost two to three times more than failures.

   Each event's time runs until every tracked RIB is reconverged.  A
   major GC cycle of the ~800 MB heap completes about every other
   event and adds ~100 ms to the event it lands on, so single events
   are bimodal and their median jumps between the two modes from run
   to run.  The reported time per event is therefore the mean over the
   run's whole rounds: every round has the same make-up and allocates
   the same.  The batched sweep is reported over all its timed passes
   for the same reason. *)

module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Propagate = Netsim_bgp.Propagate
module Announce = Netsim_bgp.Announce
module Route = Netsim_bgp.Route
module Relation = Netsim_topo.Relation
module Engine = Netsim_dynamics.Engine
module Event = Netsim_dynamics.Event
module Snapshot = Netsim_serve.Snapshot
module Sm = Netsim_prng.Splitmix
module U = Util

let setups = 5
let origins = 64
let batch = 16
let tracked = 8
let timed_passes = 3

(* ---- seeded link events (shared with serve_churn's traced run) ------- *)

(* A link on some tracked origin's routing tree: the link a random
   AS's selected route leaves on. *)
let rec tree_link rng e configs =
  let o = configs.(Sm.next_int rng (Array.length configs)).Announce.origin in
  let st = Engine.routing e ~origin:o in
  let n = Topology.as_count (Engine.topology e) in
  match Propagate.best st (Sm.next_int rng n) with
  | Some r when Engine.link_is_up e r.Route.via_link.Relation.id ->
      r.Route.via_link.Relation.id
  | _ -> tree_link rng e configs

let rec random_link rng e =
  let l = Sm.next_int rng (Topology.link_count (Engine.base_topology e)) in
  if Engine.link_is_up e l then l else random_link rng e

(* The events of one round, drawn against the engine's state at the
   start of the round. *)
let round_events rng e configs =
  let a = tree_link rng e configs in
  let r1 = random_link rng e in
  let b = tree_link rng e configs in
  let r2 = random_link rng e in
  List.map (fun l -> Event.Link_down l) [ a; r1; b; r2 ] @ [ Event.Link_up a ]

type events = {
  event_s : float list;  (** per event, until every tracked RIB reconverged *)
  labels : string list;  (** per event, same order *)
  remove_links_s : float list;  (** traced: one [remove_links] of the down set *)
  full_run_s : float list;  (** one full [Propagate.run] per event check *)
}

(* Apply whole rounds of events until the events themselves have taken
   [seconds].  After every event one tracked origin (in rotation) is
   re-propagated from scratch on the engine's current topology and
   compared with the incrementally reconverged state; that check is
   not part of the measured time. *)
let run_events (o : U.outcome) ~rng ~seconds e configs =
  let spent = ref 0. in
  let clock = ref (Engine.now e) in
  let event_s = ref [] and labels = ref [] and rm = ref [] and full = ref [] in
  let k = ref 0 in
  while !k = 0 || !spent < seconds do
    List.iter
      (fun ev ->
        o.U.attempted <- o.U.attempted + 1;
        clock := !clock +. 1.;
        Engine.schedule e ~at:!clock ev;
        let (), dt =
          U.time (fun () -> U.span "dynamics.event" (fun () -> Engine.run e ~until:!clock))
        in
        event_s := dt :: !event_s;
        spent := !spent +. dt;
        labels := Event.label ev :: !labels;
        if !U.tracing then begin
          let _, dt =
            U.time (fun () ->
                U.span "topo.remove_links" (fun () ->
                    Topology.remove_links (Engine.base_topology e) (Engine.down_links e)))
          in
          rm := dt :: !rm
        end;
        let config = configs.(!k mod Array.length configs) in
        let st, dt =
          U.time (fun () ->
              U.span "bgp.run" (fun () -> Propagate.run (Engine.topology e) config))
        in
        full := dt :: !full;
        if not (Propagate.equal st (Engine.routing e ~origin:config.Announce.origin))
        then begin
          o.U.failed <- o.U.failed + 1;
          U.wrong o "after %s the reconverged RIB of origin %d differs from a full run"
            (Event.label ev) config.Announce.origin
        end;
        incr k)
      (round_events rng e configs)
  done;
  {
    event_s = !event_s;
    labels = !labels;
    remove_links_s = !rm;
    full_run_s = !full;
  }

(* ---- the workload ------------------------------------------------------ *)

type result = {
  outcome : U.outcome;
  setup_s : float;
  batch_s : float list;  (** per batch of the timed sweeps *)
  n_ases : int;
  snap_save_s : float;
  snap_load_s : float;
  snap_mb : float;
  restart_s : float;
  ev : events;
}

let generate () =
  match
    U.span "topo.generate_scale" (fun () ->
        Generator.generate_scale Generator.scale_params)
  with
  | Ok t -> t
  | Error e -> failwith ("generate_scale: " ^ e)

let snapshot_of topo configs states =
  {
    Snapshot.git_sha = "perfbench";
    created_gen = Topology.generation topo;
    seed = Generator.scale_params.Generator.sc_seed;
    now_min = 0.;
    base = topo;
    down_links = [];
    asid = configs.(0).Announce.origin;
    pops = [];
    prefixes = [||];
    ribs =
      Array.to_list
        (Array.mapi
           (fun i st ->
             let cust, peer, prov = Propagate.rib_arrays st in
             {
               Snapshot.rib_origin = configs.(i).Announce.origin;
               rib_active = true;
               rib_cust = cust;
               rib_peer = peer;
               rib_prov = prov;
             })
           states);
    pending = [];
    overlays = [];
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let run ~seed ~seconds ~workdir =
  let o = U.outcome () in
  let rng = Sm.create seed in
  let setup_times = ref [] and topo = ref None in
  for _ = 1 to setups do
    topo := None;
    Gc.compact ();
    let t, dt = U.time generate in
    setup_times := dt :: !setup_times;
    topo := Some t
  done;
  let topo = Option.get !topo in
  let n = Topology.as_count topo in
  (* 64 distinct stub origins, drawn from the seed. *)
  let stubs = Array.of_list (Topology.by_klass topo Netsim_topo.Asn.Stub) in
  let chosen = Hashtbl.create origins in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let s = stubs.(Sm.next_int rng (Array.length stubs)) in
      if Hashtbl.mem chosen s then draw acc k
      else begin
        Hashtbl.add chosen s ();
        draw (s :: acc) (k - 1)
      end
  in
  let configs =
    Array.of_list (List.map (fun origin -> Announce.default ~origin) (draw [] origins))
  in
  (* The batched sweep, in chunks of [batch] origins.  The first pass
     grows the heap to its working size (in a fresh process its first
     batches are up to 60% slower); the next [timed_passes] are timed
     and their states are kept from the last. *)
  let batch_s = ref [] in
  let sweep ~timed =
    Array.concat
      (List.init (origins / batch) (fun b ->
           let chunk = Array.sub configs (b * batch) batch in
           if not timed then Propagate.run_batch topo chunk
           else begin
             let st, dt =
               U.time (fun () ->
                   U.span "bgp.run_batch" (fun () -> Propagate.run_batch topo chunk))
             in
             batch_s := dt :: !batch_s;
             st
           end))
  in
  ignore (Sys.opaque_identity (sweep ~timed:false));
  let states = ref [||] in
  for _ = 1 to timed_passes do
    states := [||];
    states := sweep ~timed:true
  done;
  let states = !states in
  o.U.attempted <- o.U.attempted + 1;
  (* Differential check on a seeded sample of the batched states. *)
  for _ = 1 to 2 do
    let i = Sm.next_int rng origins in
    U.check o
      (Propagate.equal states.(i) (Propagate.run topo configs.(i)))
      "batched state of origin %d differs from Propagate.run" configs.(i).Announce.origin
  done;
  (* Warm state of the tracked origins: v2 snapshot out, and back in. *)
  let tracked_configs = Array.sub configs 0 tracked in
  let snap = snapshot_of topo tracked_configs (Array.sub states 0 tracked) in
  let path = Filename.concat workdir "scale_churn.snap" in
  let (), snap_save_s =
    U.time (fun () ->
        U.span "serve.snapshot_save" (fun () ->
            Snapshot.save ~version:Snapshot.schema_version_v2 snap ~path))
  in
  o.U.attempted <- o.U.attempted + 1;
  let snap_mb = float_of_int (Unix.stat path).Unix.st_size /. 1048576. in
  Gc.compact ();
  let t_restart = U.now () in
  let loaded, snap_load_s =
    U.time (fun () -> U.span "serve.snapshot_load" (fun () -> Snapshot.load ~path))
  in
  let loaded = match loaded with Ok s -> s | Error e -> failwith ("snapshot load: " ^ e) in
  let e =
    U.span "dynamics.restore" (fun () ->
        let e = Engine.restore ~base:loaded.Snapshot.base ~down:[] ~now:0. () in
        List.iter
          (fun (r : Snapshot.rib) ->
            let config = Announce.default ~origin:r.Snapshot.rib_origin in
            let state =
              Propagate.of_rib_arrays ~topo:(Engine.topology e) ~config
                ~cust:r.Snapshot.rib_cust ~peer:r.Snapshot.rib_peer
                ~prov:r.Snapshot.rib_prov
            in
            Engine.track_state e config ~state ~active:true)
          loaded.Snapshot.ribs;
        e)
  in
  let restart_s = U.now () -. t_restart in
  o.U.attempted <- o.U.attempted + 1;
  U.check o
    (Snapshot.to_bytes_v2 loaded = read_file path)
    "the reloaded snapshot does not re-encode byte-identically";
  Sys.remove path;
  U.check o
    (List.length (Engine.tracked_prefixes e) = tracked)
    "engine resumed %d tracked origins, expected %d"
    (List.length (Engine.tracked_prefixes e)) tracked;
  let ev = run_events o ~rng ~seconds:(float_of_int seconds) e tracked_configs in
  {
    outcome = o;
    setup_s = U.median_list !setup_times;
    batch_s = !batch_s;
    n_ases = n;
    snap_save_s;
    snap_load_s;
    snap_mb;
    restart_s;
    ev;
  }

let print_report r =
  Printf.printf "sweep: %s s per batch of %d origins\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") r.batch_s)) batch;
  List.iter2
    (fun l dt -> Printf.printf "event %-16s %8.1f ms\n" l (dt *. 1000.))
    (List.rev r.ev.labels) (List.rev r.ev.event_s)

(* AS-states per second over the timed sweeps. *)
let states_per_s r =
  float_of_int (timed_passes * origins * r.n_ases)
  /. List.fold_left ( +. ) 0. r.batch_s

(* Mean time per event over the run's whole rounds. *)
let event_ms r =
  List.fold_left ( +. ) 0. r.ev.event_s *. 1000.
  /. float_of_int (List.length r.ev.event_s)

let end_to_end r =
  [
    U.metric "setup_s" "s" r.setup_s;
    U.metric "peak_rss_mb" "MB" (U.peak_rss_mb ());
    U.metric "throughput" "1/s" (states_per_s r);
    U.metric "latency_p50_ms" "ms" (event_ms r);
  ]

let per_layer r =
  let o = r.outcome in
  let link_deltas = U.obs_counter o "dynamics.link_deltas" in
  [
    U.metric "topo.generate_s" "s" (U.median (U.span_samples "topo.generate_scale"));
    U.metric "topo.remove_links_ms" "ms" (U.median_list r.ev.remove_links_s *. 1000.);
    U.metric "bgp.run_batch_s" "s" (U.median_list r.batch_s);
    U.metric "bgp.run_ms.scale" "ms" (U.median_list r.ev.full_run_s *. 1000.);
    U.metric "bgp.reconverge_dirty_ases" "count"
      (float_of_int (U.obs_counter o "bgp.reconverge_dirty_ases")
      /. float_of_int link_deltas);
    U.metric "dynamics.event_ms" "ms"
      ((U.obs_span_total_ms o "dynamics.link-down"
       +. U.obs_span_total_ms o "dynamics.link-up")
      /. float_of_int (List.length r.ev.event_s));
    U.metric "serve.snapshot_save_s" "s" r.snap_save_s;
    U.metric "serve.snapshot_load_s" "s" r.snap_load_s;
    U.metric "serve.snapshot_mb" "MB" r.snap_mb;
    U.metric "restart_s" "s" r.restart_s;
  ]
