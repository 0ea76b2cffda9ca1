(* The benchmark's measuring program.  Normally started through
   run.py, which builds it together with the daemon:

     perfbench.exe --workload paper|serve_churn|serve_bulk|scale_churn
       --seed N --seconds S --trace 0|1 --daemon PATH --workdir DIR

   Prints a table of every metric with its unit, then, as the last
   line, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
   measured with all tracing off.  With --trace 1 the workload first
   runs untraced, then again with lib/obs tracing and the benchmark's
   own spans on, and the metrics are the per-layer ones plus
   obs.trace_overhead (traced over untraced time per operation).
   Each workload reports the metrics of the layers it exercises; run.py
   checks them against BENCHMARK.json and fills 0 for the other
   layers. *)

module U = Util

type measured = {
  outcome : U.outcome;
  e2e : U.metric list;
  layers : unit -> U.metric list;  (** read the traces of this run *)
  per_op_s : float;  (** wall time per operation of the timed phase *)
}

(* The serve_churn traced run also times the small topology's layers
   in-process: link events on the reference engine (9 tracked RIBs),
   one [remove_links] of the down set, and a full [Propagate.run]. *)
let serve_microtimings o ~seed (sc : Serve_load.scene) =
  let e = Netsim_serve.Server.engine sc.Serve_load.server in
  let configs =
    Array.map (fun origin -> Netsim_bgp.Announce.default ~origin) sc.Serve_load.tracked
  in
  let rng = Netsim_prng.Splitmix.create (seed + 7) in
  let ev = Scale.run_events o ~rng ~seconds:2. e configs in
  [
    U.metric "topo.remove_links_ms" "ms" (U.median_list ev.Scale.remove_links_s *. 1000.);
    U.metric "bgp.run_ms.serve" "ms" (U.median_list ev.Scale.full_run_s *. 1000.);
    U.metric "dynamics.event_ms" "ms" (U.median_list ev.Scale.event_s *. 1000.);
  ]

let measure ~workload ~seed ~seconds ~daemon ~workdir =
  match workload with
  | "paper" ->
      let r = Paper.run ~seconds in
      {
        outcome = r.Paper.outcome;
        e2e = Paper.end_to_end r;
        layers = (fun () -> Paper.per_layer ~seed r);
        per_op_s = r.Paper.figures_s /. 5.;
      }
  | ("serve_churn" | "serve_bulk") as w ->
      let mode = if w = "serve_churn" then Serve_load.Churn else Serve_load.Bulk in
      let r =
        Serve_load.run ~exe:daemon ~mode ~seed ~seconds ~scrape:!U.tracing
      in
      Serve_load.print_report r;
      {
        outcome = r.Serve_load.outcome;
        e2e = Serve_load.end_to_end r;
        layers =
          (fun () ->
            let sc = r.Serve_load.scene in
            Serve_load.per_layer r mode
            @
            if mode = Serve_load.Churn then
              serve_microtimings r.Serve_load.outcome ~seed sc
            else []);
        per_op_s = 1. /. Serve_load.qps r;
      }
  | "scale_churn" ->
      let r = Scale.run ~seed ~seconds ~workdir in
      Scale.print_report r;
      {
        outcome = r.Scale.outcome;
        e2e = Scale.end_to_end r;
        layers = (fun () -> Scale.per_layer r);
        per_op_s = 1. /. Scale.states_per_s r;
      }
  | w -> failwith ("unknown workload " ^ w)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
     --daemon PATH --workdir DIR";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" and workdir = ref "." in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--daemon" :: v :: r -> daemon := v; parse r
    | "--workdir" :: v :: r -> workdir := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !workload = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  (* One domain: on a 2-core box the load generator, the daemon and a
     domain pool would otherwise share the cores, and the numbers
     would measure the scheduler. *)
  Netsim_par.Pool.set_domain_count 1;
  Netsim_obs.Metrics.set_enabled false;
  let go () =
    try
      measure ~workload:!workload ~seed:!seed ~seconds:!seconds ~daemon:!daemon
        ~workdir:!workdir
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" !workload (Printexc.to_string e);
      exit 1
  in
  let outcome, metrics =
    if !trace = 0 then begin
      let m = go () in
      U.print_table ~title:(!workload ^ " (end to end)") m.e2e;
      (m.outcome, m.e2e)
    end
    else begin
      let plain = go () in
      Gc.compact ();
      U.tracing := true;
      Netsim_obs.Metrics.set_enabled true;
      let traced = go () in
      let layers =
        U.metric "obs.trace_overhead" "ratio" (traced.per_op_s /. plain.per_op_s)
        :: traced.layers ()
      in
      print_string (Netsim_obs.Span.render ());
      U.print_table ~title:(!workload ^ " (per layer)") layers;
      let o = traced.outcome in
      o.U.attempted <- o.U.attempted + plain.outcome.U.attempted;
      o.U.failed <- o.U.failed + plain.outcome.U.failed;
      o.U.errors <- o.U.errors @ plain.outcome.U.errors;
      (o, layers)
    end
  in
  U.emit outcome metrics
