(* Workload "paper": build the three scenarios at default sizes and
   regenerate Figures 1-5, checking every tracked claim.  This is the
   per-window MinRTT pipeline of the paper (sections 3.1-3.3); most of
   its time is RTT sampling, and it never touches serving, snapshots
   or dynamics.

   The scenarios are the published configuration (seed 42): claim pass
   rates across independently generated Internets are below 1 (see
   `beatbgp robustness`), so drawing the scenario from the workload
   seed would make failures depend on the seed.  The seed only picks
   the flows the traced run samples for its RTT microtiming. *)

module Scenario = Beatbgp.Scenario
module Claims = Beatbgp.Claims
module U = Util

type scenarios = {
  fb : Scenario.facebook;
  ms : Scenario.microsoft;
  gc : Scenario.google;
}

let setups = 9

(* One cold set-up: the RIB cache is emptied first, so every build
   pays the propagations a fresh process pays. *)
let build () =
  Netsim_bgp.Rib_cache.clear ();
  let fb = U.span "scenario.facebook" (fun () -> Scenario.facebook ()) in
  let ms = U.span "scenario.microsoft" (fun () -> Scenario.microsoft ()) in
  let gc = U.span "scenario.google" (fun () -> Scenario.google ()) in
  { fb; ms; gc }

(* Claims each figure must carry; a figure that comes back with fewer
   has lost a tracked statistic. *)
let figures sc =
  let open Beatbgp in
  [
    ("fig1", 2, fun () -> (Fig1_pop_egress.run sc.fb).Fig1_pop_egress.figure);
    ("fig2", 2, fun () -> (Fig2_route_classes.run sc.fb).Fig2_route_classes.figure);
    ("fig3", 2, fun () -> (Fig3_anycast_gap.run sc.ms).Fig3_anycast_gap.figure);
    ("fig4", 2, fun () -> (Fig4_dns_redirection.run sc.ms).Fig4_dns_redirection.figure);
    ("fig5", 3, fun () -> (Fig5_cloud_tiers.run sc.gc).Fig5_cloud_tiers.figure);
  ]

(* One round of Figures 1-5.  A figure whose tracked claims do not all
   pass is a failed operation. *)
let round (o : U.outcome) sc =
  List.iter
    (fun (id, n_claims, run) ->
      o.U.attempted <- o.U.attempted + 1;
      let fig = U.span ("core." ^ id) run in
      U.check o (fig.Beatbgp.Figure.id = id) "%s came back as %s" id
        fig.Beatbgp.Figure.id;
      let claims = Claims.of_figure fig in
      U.check o
        (List.length claims = n_claims)
        "%s carries %d tracked claims, expected %d" id (List.length claims)
        n_claims;
      if not (List.for_all Claims.passes claims) then begin
        o.U.failed <- o.U.failed + 1;
        print_string (Claims.render claims)
      end)
    (figures sc)

(* Per-layer microtimings on the built scenario: RTT sampling over the
   Figure 1 flows, and the median the per-window pipeline takes. *)
let rtt_ns_per_sample ~seed sc =
  let flows =
    Array.to_list sc.fb.Scenario.fb_entries
    |> List.concat_map (fun (e : Netsim_cdn.Egress.entry) ->
           List.map (fun (r : Netsim_cdn.Egress.option_route) -> r.flow) e.options)
    |> Array.of_list
  in
  let rng = Netsim_prng.Splitmix.create seed in
  let cong = sc.fb.Scenario.fb_congestion in
  let n = 200_000 in
  let horizon = sc.fb.Scenario.fb_days *. 1440. in
  let picks =
    Array.init n (fun _ ->
        ( flows.(Netsim_prng.Splitmix.next_int rng (Array.length flows)),
          Netsim_prng.Splitmix.next_float rng *. horizon ))
  in
  let sink = ref 0. in
  let (), dt =
    U.time (fun () ->
        U.span "latency.rtt_sample" (fun () ->
            Array.iter
              (fun (flow, t) ->
                sink := !sink +. Netsim_latency.Rtt.sample_ms cong ~rng ~time_min:t flow)
              picks))
  in
  ignore (Sys.opaque_identity !sink);
  dt *. 1e9 /. float_of_int n

let median_ns ~seed sc =
  let k = sc.fb.Scenario.fb_samples_per_route in
  let rng = Netsim_prng.Splitmix.create (seed + 1) in
  let n = 200_000 in
  let windows =
    Array.init 1024 (fun _ ->
        Array.init k (fun _ -> 10. +. (100. *. Netsim_prng.Splitmix.next_float rng)))
  in
  let sink = ref 0. in
  let (), dt =
    U.time (fun () ->
        for i = 0 to n - 1 do
          sink := !sink +. Netsim_stats.Quantile.median windows.(i land 1023)
        done)
  in
  ignore (Sys.opaque_identity !sink);
  dt *. 1e9 /. float_of_int n

type result = {
  outcome : U.outcome;
  setup_s : float;
  figures_s : float;  (** median round time *)
  rounds : int;
  sc : scenarios;
}

let run ~seconds =
  let o = U.outcome () in
  let setup_times = ref [] and sc = ref None in
  for _ = 1 to setups do
    sc := None;
    Gc.full_major ();
    let s, dt = U.time build in
    setup_times := dt :: !setup_times;
    sc := Some s
  done;
  let sc = Option.get !sc in
  let t_start = U.now () in
  let round_times = ref [] in
  while !round_times = [] || U.now () -. t_start < float_of_int seconds do
    let (), dt = U.time (fun () -> round o sc) in
    round_times := dt :: !round_times
  done;
  {
    outcome = o;
    setup_s = U.median_list !setup_times;
    figures_s = U.median_list !round_times;
    rounds = List.length !round_times;
    sc;
  }

(* The result line carries every end-to-end metric on every workload.
   paper has one timed quantity, the round of Figures 1-5, so its
   throughput and latency are that one figure twice (5 per round, and
   the round in ms) and move together. *)
let end_to_end r =
  [
    U.metric "setup_s" "s" r.setup_s;
    U.metric "peak_rss_mb" "MB" (U.peak_rss_mb ());
    U.metric "throughput" "1/s" (5. /. r.figures_s);
    U.metric "latency_p50_ms" "ms" (r.figures_s *. 1000.);
  ]

(* Called after a traced [run]: the lib/obs tree and counters hold
   [setups] set-ups and [r.rounds] figure rounds.  They are read before
   the microtimings add samples of their own. *)
let per_layer ~seed r =
  let o = r.outcome in
  let per_round v = v /. float_of_int r.rounds in
  let fig n = U.metric ("core.fig" ^ n ^ "_s") "s"
      (U.median (U.span_samples ("core.fig" ^ n))) in
  let hits = U.obs_counter o "bgp.rib_cache.hits"
  and misses = U.obs_counter o "bgp.rib_cache.misses" in
  let gen_ms, gen_calls = U.obs_span o "topo.generate" in
  let from_trace =
    [
      U.metric "topo.generate_s" "s"
        (gen_ms /. 1000. /. float_of_int gen_calls);
      U.metric "cdn.anycast.make_s" "s"
        (U.obs_span_total_ms o "cdn.anycast.make" /. 1000. /. float_of_int setups);
      U.metric ~zero_ok:true "bgp.rib_cache.hit_ratio" "ratio"
        (float_of_int hits /. float_of_int (hits + misses));
      U.metric "measure.edge_window_s" "s"
        (per_round (U.obs_span_total_ms o "measure.edge_window" /. 1000.));
      U.metric "cdn.redirector.train_s" "s"
        (per_round (U.obs_span_total_ms o "cdn.redirector.train" /. 1000.));
      U.metric "latency.rtt_samples" "count"
        (per_round (float_of_int (U.obs_counter o "latency.rtt.samples")));
      U.metric "latency.congestion_episodes" "count"
        (per_round (float_of_int (U.obs_counter o "latency.congestion.episodes")));
      fig "1"; fig "2"; fig "3"; fig "4"; fig "5";
    ]
  in
  let rtt = rtt_ns_per_sample ~seed r.sc in
  let median = median_ns ~seed r.sc in
  from_trace
  @ [
      U.metric "latency.rtt_ns_per_sample" "ns" rtt;
      U.metric "stats.median_ns" "ns" median;
    ]
