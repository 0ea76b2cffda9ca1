(* Shared plumbing for the benchmark workloads: wall clock, order
   statistics, the benchmark's own spans, process memory and the
   result line. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolated quantile; nan for no samples. *)
let quantile samples q =
  if samples = [||] then nan else Netsim_stats.Quantile.quantile samples q

let median samples = quantile samples 0.5

let median_list l = median (Array.of_list l)

(* A tail percentile is only a tail when at least ten samples lie
   beyond it: the p99 needs 1000 samples, and so on. *)
let tail_supported ~n q = float_of_int n *. (1. -. q) >= 10.

(* ---- outcome --------------------------------------------------------- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** output checks that did not hold *)
}

let outcome () = { attempted = 0; failed = 0; errors = [] }

(* A wrong output: recorded, and the run reports [correct = false]. *)
let wrong o fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length o.errors < 20 then o.errors <- msg :: o.errors)
    fmt

let check o cond fmt =
  Printf.ksprintf (fun msg -> if not cond then wrong o "%s" msg) fmt

(* ---- the benchmark's own spans ---------------------------------------

   [span name f] times a call into one layer.  With tracing on, the
   call also runs under a lib/obs span "bench.<name>", so the program's
   own spans and counter deltas nest under it in the trace tree, and
   every duration is kept for the per-layer medians. *)

let tracing = ref false
let spans : (string, float list ref) Hashtbl.t = Hashtbl.create 32

let record name dt =
  match Hashtbl.find_opt spans name with
  | Some l -> l := dt :: !l
  | None -> Hashtbl.add spans name (ref [ dt ])

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let v = Netsim_obs.Span.with_ ~name:("bench." ^ name) f in
    record name (now () -. t0);
    v
  end

let span_samples name =
  match Hashtbl.find_opt spans name with
  | Some l -> Array.of_list (List.rev !l)
  | None -> [||]

(* Total wall time and calls of every lib/obs span with this name,
   anywhere in the recorded tree.  A span the traced run never entered
   has been renamed or dropped: its layer would read 0, so it is a
   wrong output, not a measurement. *)
let obs_span o name =
  let rec go (ms, calls) (i : Netsim_obs.Span.info) =
    let acc =
      if i.Netsim_obs.Span.i_name = name then (ms +. i.i_total_ms, calls + i.i_calls)
      else (ms, calls)
    in
    List.fold_left go acc i.i_children
  in
  let ms, calls = List.fold_left go (0., 0) (Netsim_obs.Span.tree ()) in
  if calls = 0 then wrong o "lib/obs span %s was not recorded" name;
  (ms, calls)

let obs_span_total_ms o name = fst (obs_span o name)

(* A lib/obs counter; every counter is registered when its module is
   initialised, so a missing name is a renamed or dropped counter. *)
let obs_counter o name =
  match List.assoc_opt name (Netsim_obs.Metrics.counter_rows ()) with
  | Some v -> v
  | None ->
      wrong o "lib/obs counter %s does not exist" name;
      0

(* ---- memory ---------------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.)
                else scan ()
          in
          scan ())

(* ---- the result line ------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; zero_ok : bool }

(* [zero_ok] for a measured quantity that can truly be 0, such as a
   hit ratio with no hits. *)
let metric ?(zero_ok = false) name unit_ value = { name; value; unit_; zero_ok }

let json_float v = Printf.sprintf "%.17g" v

let print_table ~title metrics =
  Printf.printf "--- %s ---\n" title;
  List.iter
    (fun m -> Printf.printf "  %-32s %16.6g %s\n" m.name m.value m.unit_)
    metrics

let emit o metrics =
  if o.attempted = 0 then begin
    prerr_endline "perfbench: no operation was attempted";
    exit 1
  end;
  (* Every metric a workload reports measures a layer it exercises,
     so it is a positive number unless [zero_ok]; 0 or nan means the
     layer went unmeasured.  run.py fills 0 for the layers a workload
     does not exercise. *)
  List.iter
    (fun m ->
      if not (Float.is_finite m.value && (m.value > 0. || (m.zero_ok && m.value = 0.)))
      then
        wrong o "metric %s read %g: its layer was not measured" m.name m.value)
    metrics;
  let metrics =
    List.map
      (fun m -> if Float.is_finite m.value then m else { m with value = 0. })
      metrics
  in
  List.iter (fun e -> Printf.printf "WRONG: %s\n" e) (List.rev o.errors);
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.errors = []) o.attempted o.failed body
