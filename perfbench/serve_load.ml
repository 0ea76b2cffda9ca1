(* Workloads "serve_churn" and "serve_bulk": the `beatbgp serve`
   daemon at its default config (697 ASes, 9 tracked prefixes), driven
   over loopback TCP by this single-threaded process through at most
   two connections.

   - serve_churn: `--churn` with a horizon that outlasts the run; each
     connection keeps one request outstanding (a closed loop of two
     interactive callers).  Every 16th request of a connection carries
     a churn advance, which reconverges the tracked RIBs after the link
     changes of the elapsed 15 simulated minutes.
   - serve_bulk: a quiet timeline; each connection writes a window of
     [window] pipelined requests in one write and waits for all of its
     responses before the next window.

   The daemon receives only the generated request lines.  Responses are
   kept and checked after the timed window, against the base topology
   and scenario this process builds from the same config. *)

module Server = Netsim_serve.Server
module Engine = Netsim_dynamics.Engine
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Prefix = Netsim_traffic.Prefix
module Sm = Netsim_prng.Splitmix
module U = Util

type mode = Churn | Bulk

(* A run of 10 s consumes about 20 simulated days today (~3,000
   requests per second; every 16th request of a connection advances
   the clock 15 minutes).  90 days keep the timeline as dense at the
   end of a run as at its start even if the daemon gets four times
   faster. *)
let churn_days = 90
let window = 8
let batch = 16  (* Server.default_config.batch: requests per advance *)
let setups = 25
let warmup_requests = 256  (* per connection, untimed *)

(* ---- the reference scenario ------------------------------------------ *)

type scene = {
  server : Server.t;  (** built without churn; its engine is the base state *)
  base : Topology.t;
  provider : int;
  pops : int list;
  prefixes : Prefix.t array;
  client_prefixes : int array;  (** prefix ids outside the provider AS *)
  tracked : int array;  (** tracked origin ASes, provider included *)
  n_ases : int;
}

let scene () =
  let s = Server.build Server.default_config in
  let e = Server.engine s in
  let prefixes = Server.prefixes s in
  let provider = Server.provider s in
  {
    server = s;
    base = Engine.base_topology e;
    provider;
    pops = Server.pops s;
    prefixes;
    client_prefixes =
      Array.to_list prefixes
      |> List.filter (fun (p : Prefix.t) -> p.Prefix.asid <> provider)
      |> List.map (fun (p : Prefix.t) -> p.Prefix.id)
      |> Array.of_list;
    tracked =
      Array.of_list (List.map (fun (o, _, _) -> o) (Engine.tracked_prefixes e));
    n_ases = Topology.as_count (Engine.base_topology e);
  }

(* ---- request generation ----------------------------------------------

   Verbs are dealt from a deck that holds each verb in proportion to
   its weight (per 100 requests), shuffled from the connection's seed
   and reshuffled when used up, independently of the arguments.  Every
   run thus sends the weights' exact shares; the seed moves only the
   order and the arguments.  By cost at the client under churn,
   CATCHMENT ~ RTT (~70 us) < STATS < EXPLAIN < EGRESS (~1.8 ms).  With
   84% cheap verbs the median stays inside the cheap cluster, clear of
   the step to the expensive one, and the p99 inside the EGRESS-miss
   and reconvergence tail (see README.md). *)

type verb = Catchment | Rtt | Egress | Explain | Stats

let verbs = [| Catchment; Rtt; Egress; Explain; Stats |]
let verb_name = function
  | Catchment -> "catchment"
  | Rtt -> "rtt"
  | Egress -> "egress"
  | Explain -> "explain"
  | Stats -> "stats"

let per_hundred = [| 50; 34; 7; 4; 5 |]  (* in [verbs] order *)

type source = { rng : Sm.t; mutable deck : verb array; mutable next : int }

let source rng = { rng; deck = [||]; next = 0 }

let deal s =
  if s.next >= Array.length s.deck then begin
    let d =
      Array.concat (Array.to_list (Array.mapi (fun i n -> Array.make n verbs.(i)) per_hundred))
    in
    for i = Array.length d - 1 downto 1 do
      let j = Sm.next_int s.rng (i + 1) in
      let t = d.(i) in
      d.(i) <- d.(j);
      d.(j) <- t
    done;
    s.deck <- d;
    s.next <- 0
  end;
  s.next <- s.next + 1;
  s.deck.(s.next - 1)

type request = { verb : verb; line : string }

let pick rng a = a.(Sm.next_int rng (Array.length a))

(* Arguments are uniform; a draw the daemon would reject (a client in
   the origin AS, an AS that is the origin) is drawn again. *)
let gen_request sc s =
  let rng = s.rng in
  let client () = pick rng sc.client_prefixes in
  let rec line verb =
    match verb with
    | Catchment -> Printf.sprintf "CATCHMENT %d" (client ())
    | Egress -> Printf.sprintf "EGRESS %d" (pick rng (Array.of_list sc.pops))
    | Stats -> "STATS"
    | Rtt ->
        let c = client () in
        let origin = pick rng sc.tracked in
        if sc.prefixes.(c).Prefix.asid = origin then line verb
        else
          Printf.sprintf "RTT %d %s" c
            (if origin = sc.provider then "anycast" else string_of_int origin)
    | Explain ->
        let parg, origin =
          if Sm.next_int rng 2 = 0 then ("anycast", sc.provider)
          else
            let c = client () in
            (string_of_int c, sc.prefixes.(c).Prefix.asid)
        in
        let a = Sm.next_int rng sc.n_ases in
        if a = origin then line verb else Printf.sprintf "EXPLAIN %s %d" parg a
  in
  let verb = deal s in
  { verb; line = line verb }

(* ---- response checks -------------------------------------------------- *)

let fields body =
  String.split_on_char '\n' body
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun w ->
         match String.index_opt w '=' with
         | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
         | None -> None)

let int_field body k = Option.bind (List.assoc_opt k (fields body)) int_of_string_opt

(* Relations of [x] toward [y] over the base topology's links. *)
let rels sc x y =
  List.map (fun l -> Relation.rel_of l x) (Topology.links_between sc.base x y)

(* Loop-free, over base-topology links, valley-free (customer-to-
   provider hops, at most one peering hop, then provider-to-customer
   hops), ending at the origin. *)
let path_ok sc ~from ~origin path =
  let full = from :: path in
  let rec distinct seen = function
    | [] -> true
    | x :: r -> (not (List.mem x seen)) && distinct (x :: seen) r
  in
  let rec walk climbing = function
    | x :: (y :: _ as rest) -> (
        match rels sc x y with
        | [] -> false
        | rs ->
            (* Parallel sessions share one relationship; take any. *)
            let step =
              List.filter_map
                (fun r ->
                  match (r, climbing) with
                  | Relation.To_provider, true -> Some true
                  | (Relation.Priv_peer | Relation.Pub_peer), true -> Some false
                  | Relation.To_customer, _ -> Some false
                  | _ -> None)
                rs
            in
            List.exists (fun c -> walk c rest) (List.sort_uniq compare step))
    | _ -> true
  in
  path <> []
  && List.nth full (List.length full - 1) = origin
  && distinct [] full && walk true full

let explain_path body =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.index_opt line '[' with
         | Some i when String.length line > 9 && String.sub line 0 9 = "selected:" ->
             let j = String.index line ']' in
             Some
               (String.sub line (i + 1) (j - i - 1)
               |> String.split_on_char ' '
               |> List.filter (( <> ) "")
               |> List.map int_of_string)
         | _ -> None)

let check_response o sc (req : request) body =
  let words = String.split_on_char ' ' req.line in
  match (req.verb, words) with
  | Catchment, [ _; p ] ->
      let p = int_of_string p in
      U.check o (int_field body "prefix" = Some p) "CATCHMENT %d answered %S" p body;
      U.check o
        (int_field body "client_as" = Some sc.prefixes.(p).Prefix.asid)
        "CATCHMENT %d: wrong client AS in %S" p body;
      U.check o
        (List.assoc_opt "site" (fields body) = Some "unreachable"
        || match int_field body "site" with
           | Some m -> List.mem m sc.pops
           | None -> false)
        "CATCHMENT %d: site is not a provider PoP in %S" p body
  | Rtt, [ _; c; _ ] ->
      U.check o (int_field body "client" = Some (int_of_string c)) "%s answered %S" req.line body
  | Egress, [ _; pop ] ->
      let n k = Option.value ~default:(-1) (int_field body k) in
      U.check o (n "pop" = int_of_string pop) "%s answered %S" req.line body;
      U.check o
        (n "private" + n "public" + n "transit" + n "unreachable" = n "prefixes"
        && n "private" >= 0 && n "public" >= 0 && n "transit" >= 0 && n "unreachable" >= 0)
        "%s: egress mix does not add up in %S" req.line body
  | Explain, [ _; parg; a ] -> (
      let a = int_of_string a in
      let origin =
        if parg = "anycast" then sc.provider
        else sc.prefixes.(int_of_string parg).Prefix.asid
      in
      U.check o
        (int_field body "origin_as" = Some origin && int_field body "as" = Some a)
        "%s answered %S" req.line body;
      match explain_path body with
      | Some path ->
          U.check o (path_ok sc ~from:a ~origin path) "%s: invalid AS path in %S"
            req.line body
      | None ->
          U.check o
            (List.exists
               (fun l -> l = "selected: unreachable (no candidate routes)")
               (String.split_on_char '\n' body))
            "%s: no selected route in %S" req.line body)
  | Stats, _ ->
      U.check o (int_field body "total" <> None) "STATS answered %S" body
  | _ -> U.wrong o "unexpected request %S" req.line

(* ---- wire client ------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable sent : int;  (** requests written on this connection *)
  inflight : (request * float) Queue.t;  (** awaiting a response *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Some { fd; rbuf = Buffer.create 65536; sent = 0; inflight = Queue.create () }
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      Unix.close fd;
      None

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let send c reqs =
  let t = U.now () in
  List.iter (fun r -> Queue.push (r, t) c.inflight) reqs;
  c.sent <- c.sent + List.length reqs;
  write_all c.fd (String.concat "" (List.map (fun r -> r.line ^ "\n") reqs)) 0

(* Pop one complete "OK <n>\n<body>\n" / "ERR <n>\n..." frame. *)
let take_frame c =
  let s = Buffer.contents c.rbuf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i -> (
      let header = String.sub s 0 i in
      match String.split_on_char ' ' header with
      | [ status; n ] -> (
          match int_of_string_opt n with
          | Some n when String.length s >= i + 1 + n + 1 ->
              if s.[i + 1 + n] <> '\n' then failwith ("bad frame after " ^ header);
              let body = String.sub s (i + 1) n in
              Buffer.clear c.rbuf;
              Buffer.add_substring c.rbuf s (i + n + 2) (String.length s - i - n - 2);
              Some (status, body)
          | Some _ -> None
          | None -> failwith ("bad frame header " ^ header))
      | _ -> failwith ("bad frame header " ^ header))

let chunk = Bytes.create 65536

(* Read what is available; returns false at EOF. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      true

(* Blocking round trip, for set-up probes and the closing STATS/PROM. *)
let call c line =
  send c [ { verb = Stats; line } ];
  let rec wait () =
    match take_frame c with
    | Some (status, body) ->
        ignore (Queue.pop c.inflight);
        (status, body)
    | None -> if fill c then wait () else failwith "daemon closed the connection"
  in
  wait ()

(* ---- the daemon ------------------------------------------------------- *)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  port

type daemon = { pid : int; port : int }

(* Daemons not yet reaped; killed and waited for on any exit, so a
   failed run leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe mode =
  let port = free_port () in
  let args =
    [ exe; "serve"; "--listen"; string_of_int port ]
    @ (match mode with
      | Churn -> [ "--churn"; "--churn-days"; string_of_int churn_days ]
      | Bulk -> [])
  in
  let env =
    Array.append [| "NETSIM_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"NETSIM_" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env exe (Array.of_list args) env devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  { pid; port }

let reap ?(timeout = 30.) d =
  let deadline = U.now () +. timeout in
  live := List.filter (( <> ) d.pid) !live;
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if U.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid);
          false
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

(* Spawn, connect and get a first answer; the set-up time runs from
   spawn to that answer.  The port is picked free beforehand; a daemon
   that exits during start-up (another process took the port) is
   started again on a new one. *)
let rec start ?(attempts = 3) ~exe mode =
  let t0 = U.now () in
  let d = spawn ~exe mode in
  let deadline = t0 +. 120. in
  let rec conn () =
    match connect d.port with
    | Some c -> Some c
    | None -> (
        if U.now () > deadline then failwith "daemon did not start listening";
        match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ ->
            Unix.sleepf 0.002;
            conn ()
        | _ ->
            live := List.filter (( <> ) d.pid) !live;
            None)
  in
  match conn () with
  | None when attempts > 1 -> start ~attempts:(attempts - 1) ~exe mode
  | None -> failwith "daemon exited during start-up"
  | Some c ->
      let status, _ = call c "STATS" in
      if status <> "OK" then failwith "first answer was not OK";
      (d, c, U.now () -. t0)

let stop d conns =
  (match conns with
  | c :: _ -> ( try ignore (call c "QUIT") with _ -> ())
  | [] -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  reap d

(* ---- load ------------------------------------------------------------- *)

type sample = { s_verb : verb; s_boundary : bool; s_us : float }

type load = {
  samples : sample list;  (** timed responses *)
  spreads_ms : float list;  (** first-to-last response per bulk window *)
  answered : (request * string * string) list;  (** every response *)
  elapsed : float;
  timed : int;
}

(* Drive both connections until [seconds] have passed after the
   warm-up.  Latency runs from the write of a request to its complete
   framed response. *)
let drive mode sc sources conns ~seconds =
  let conns = Array.of_list conns in
  let n = Array.length conns in
  let samples = ref [] and spreads = ref [] and answered = ref [] in
  let warm = Array.make n true in
  let timed = ref 0 in
  let win_first = Array.make n nan in
  let t_start = ref nan in
  let all_warm () = Array.for_all (fun w -> not w) warm in
  let stop_at () = !t_start +. float_of_int seconds in
  let finished = ref false in
  let refill i =
    let c = conns.(i) in
    if Queue.is_empty c.inflight && not !finished then begin
      if warm.(i) && c.sent >= warmup_requests then begin
        warm.(i) <- false;
        if all_warm () then t_start := U.now ()
      end;
      let k = match mode with Churn -> 1 | Bulk -> window in
      win_first.(i) <- nan;
      send c (List.init k (fun _ -> gen_request sc sources.(i)))
    end
  in
  Array.iteri (fun i _ -> refill i) conns;
  let busy () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns in
  while busy () do
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let r, _, _ = Server.retry_eintr (fun () -> Unix.select fds [] [] 30.) in
    if r = [] then failwith "daemon stopped answering";
    Array.iteri
      (fun i c ->
        if List.mem c.fd r then begin
          if not (fill c) then failwith "daemon closed the connection";
          let rec drain () =
            match take_frame c with
            | None -> ()
            | Some (status, body) ->
                let now = U.now () in
                let seq = c.sent - Queue.length c.inflight + 1 in
                let req, t_sent = Queue.pop c.inflight in
                answered := (req, status, body) :: !answered;
                let timing = (not warm.(i)) && not (Float.is_nan !t_start) in
                if timing then begin
                  incr timed;
                  samples :=
                    {
                      s_verb = req.verb;
                      s_boundary = mode = Churn && seq mod batch = 0;
                      s_us = (now -. t_sent) *. 1e6;
                    }
                    :: !samples;
                  if Float.is_nan win_first.(i) then win_first.(i) <- now;
                  if Queue.is_empty c.inflight && mode = Bulk then
                    spreads := (now -. win_first.(i)) *. 1e3 :: !spreads
                end;
                drain ()
          in
          drain ();
          if (not (Float.is_nan !t_start)) && U.now () >= stop_at () then
            finished := true;
          refill i
        end)
      conns
  done;
  {
    samples = !samples;
    spreads_ms = !spreads;
    answered = List.rev !answered;
    elapsed = U.now () -. !t_start;
    timed = !timed;
  }

type result = {
  outcome : U.outcome;
  scene : scene;
  setup_s : float;
  rss_mb : float;
  load : load;
  prom : string;
}

let run ~exe ~mode ~seed ~seconds ~scrape =
  let o = U.outcome () in
  let sc = scene () in
  (* Set-up: spawn a daemon and wait for its first answer; the first
     [setups - 1] daemons are stopped again, the last one serves. *)
  let setup_times = ref [] in
  let rec starts k =
    let d, c, dt = start ~exe mode in
    setup_times := dt :: !setup_times;
    if k > 1 then begin
      U.check o (stop d [ c ]) "daemon exited uncleanly";
      starts (k - 1)
    end
    else (d, c)
  in
  let d, c0 = starts setups in
  let c1 =
    match connect d.port with Some c -> c | None -> failwith "second connection refused"
  in
  let conns = [ c0; c1 ] in
  let root = Sm.create seed in
  let sources =
    Array.init 2 (fun i -> source (Sm.of_label root (Printf.sprintf "conn%d" i)))
  in
  let load = drive mode sc sources conns ~seconds in
  (* Each connection's STATS total counts every request it sent,
     this STATS included. *)
  List.iteri
    (fun i c ->
      let status, body = call c "STATS" in
      U.check o (status = "OK") "closing STATS failed";
      U.check o
        (int_field body "total" = Some c.sent)
        "connection %d: STATS total=%s but %d requests were sent" i
        (Option.fold ~none:"?" ~some:string_of_int (int_field body "total"))
        c.sent)
    conns;
  let prom = if scrape then snd (call c0 "PROM") else "" in
  let rss_mb = U.peak_rss_mb ~pid:(string_of_int d.pid) () in
  U.check o (stop d conns) "daemon exited uncleanly";
  List.iter
    (fun (req, status, body) ->
      o.U.attempted <- o.U.attempted + 1;
      if status <> "OK" then begin
        o.U.failed <- o.U.failed + 1;
        U.wrong o "%s answered %s %S" req.line status body
      end
      else
        try check_response o sc req body
        with e -> U.wrong o "%s: unreadable answer %S (%s)" req.line body (Printexc.to_string e))
    load.answered;
  { outcome = o; scene = sc; setup_s = U.median_list !setup_times; rss_mb; load; prom }

let latencies ?verb ?boundary r =
  List.filter_map
    (fun s ->
      if
        (match verb with Some v -> s.s_verb = v | None -> true)
        && match boundary with Some b -> s.s_boundary = b | None -> true
      then Some s.s_us
      else None)
    r.load.samples
  |> Array.of_list

let qps r = float_of_int r.load.timed /. r.load.elapsed

(* Where the percentiles fall: the latency distribution overall and
   per verb, for choosing and checking the verb weights. *)
let print_report r =
  let row label a =
    if Array.length a > 0 then
      Printf.printf
        "%-10s n=%6d  p10 %8.0f  p25 %8.0f  p50 %8.0f  p75 %8.0f  p90 %8.0f  \
         p99 %8.0f us\n"
        label (Array.length a) (U.quantile a 0.1) (U.quantile a 0.25) (U.quantile a 0.5)
        (U.quantile a 0.75) (U.quantile a 0.9) (U.quantile a 0.99)
  in
  row "all" (latencies r);
  Array.iter (fun v -> row (verb_name v) (latencies ~verb:v ~boundary:false r)) verbs;
  row "boundary" (latencies ~boundary:true r)

let end_to_end r =
  [
    U.metric "setup_s" "s" r.setup_s;
    U.metric "peak_rss_mb" "MB" r.rss_mb;
    U.metric "throughput" "1/s" (qps r);
    U.metric "latency_p50_ms" "ms" (U.median (latencies r) /. 1000.);
  ]

(* A PROM sample value: "<name> <value>" on its own line.  A sample
   the scrape lacks has been renamed or dropped. *)
let prom_value o prom name =
  match
    String.split_on_char '\n' prom
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when n = name -> float_of_string_opt v
           | _ -> None)
  with
  | Some v -> v
  | None ->
      U.wrong o "PROM sample %s is missing" name;
      nan

(* The layers each serve workload exercises: reconvergence and
   requests carrying a churn advance only under churn, pipelined
   windows only in bulk. *)
let per_layer r mode =
  let o = r.outcome in
  let all = latencies r in
  let p99 =
    if U.tail_supported ~n:(Array.length all) 0.99 then U.quantile all 0.99 else nan
  in
  let verb_p50 v =
    U.metric
      ("serve." ^ verb_name v ^ "_p50_us")
      "us"
      (U.median (latencies ~verb:v ~boundary:false r))
  in
  let prom = prom_value o r.prom in
  let hits = prom "netsim_bgp_rib_cache_hits_total"
  and misses = prom "netsim_bgp_rib_cache_misses_total" in
  [
    verb_p50 Catchment; verb_p50 Rtt; verb_p50 Egress; verb_p50 Explain;
    verb_p50 Stats;
    U.metric ~zero_ok:true "bgp.rib_cache.hit_ratio" "ratio" (hits /. (hits +. misses));
    U.metric "latency_p99_us" "us" p99;
  ]
  @
  match mode with
  | Churn ->
      [
        U.metric "serve.boundary_p50_us" "us" (U.median (latencies ~boundary:true r));
        U.metric "bgp.reconverge_dirty_ases" "count"
          (prom "netsim_bgp_reconverge_dirty_ases_total"
          /. prom "netsim_dynamics_link_deltas_total");
      ]
  | Bulk -> [ U.metric "serve.window_spread_ms" "ms" (U.median_list r.load.spreads_ms) ]
