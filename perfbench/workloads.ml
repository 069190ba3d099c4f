(* The four benchmark workloads and the repetition loop that measures
   them. Every workload runs in one process and one domain and calls
   only public library entry points; README.md says why each exists and
   which metric each layer should move. *)

module N = Abrr_core.Network
module R = Abrr_core.Router
module C = Abrr_core.Counters
module T = Topo.Isp_topo
module RG = Topo.Route_gen
module TG = Topo.Trace_gen
module Mrt = Topo.Mrt
module Sim = Eventsim.Sim
module Time = Eventsim.Time
module P = Verify.Propagation

let span = Spans.span
let now = Unix.gettimeofday
let fi = float_of_int

(* {1 Sizes}

   One repetition takes one to four seconds on a 2-core host (churn's
   under one), so a run visits each of its inputs one to three times
   inside its window. *)

(* feed: 250 prefixes on the 104-router Tier-1 network. The converged
   network holds ~22 MB of live words and the process peaks at ~105 MB
   RSS, so the live working set fits in a 105 MB L3; the 1,200 or more
   prefixes that would exceed it take over 15 s a repetition. The
   egress oracle checks [feed_sample_prefixes] evenly spaced prefixes. *)
let feed_prefixes = 250
let feed_sample_prefixes = 8

(* churn: a small table and a two-week trace with the generator's
   default popularity skew, as every other trace caller uses. Under that
   skew the hottest prefix draws about a fifth of the events, so an
   input's work depends on how many routes that prefix has: simulator
   events per input vary by 19% (coefficient of variation). A run
   averages [churn_inputs] inputs to keep that from its figure. *)
let churn_prefixes = 80
let churn_events = 400
let churn_inputs = 24
let churn_mrai = Time.sec 5

(* drills: 96 routers with the §4 peer shape (25 peer ASes x 8 points).
   Smaller tables or fewer peer ASes leave some seeds without what three
   drills need: a prefix in AP 0 (arr-failover), a single-homed prefix
   (flap-damping), a peer AS not carrying the victim (leak). At this size
   none of 10,000 seeds lacks one. *)
let drill_pops = 12
let drill_routers_per_pop = 8
let drill_peer_ases = 25
let drill_points = 8
let drill_prefixes = 80

(* lint: 336 routers; the SPF rows are a fixed cost per router, so a
   handful of prefixes suffices. The lint's cost still varies with the
   generated topology, by about 12% between inputs, so a run averages
   [lint_inputs] of them. *)
let lint_pops = 21
let lint_routers_per_pop = 16
let lint_prefixes = 5
let lint_inputs = 16

(* {1 Shared pieces} *)

let tier1_topo tr ~seed =
  span tr "topo.generate" (fun () ->
      T.generate
        (T.spec ~pops:13 ~routers_per_pop:8 ~peer_ases:25 ~peering_points_per_as:8
           ~seed ()))

let route_table tr topo ~prefixes ~seed =
  span tr "route_gen.generate" (fun () ->
      RG.generate topo (RG.spec ~n_prefixes:prefixes ~seed ()))

(* ABRR with 8 APs x 2 ARRs under always-compare MED (the paper's
   testbed avoids MED oscillation by configuration), with the
   processing delays the bench experiments use. *)
let abrr_config ?mrai topo =
  T.config ~med_mode:Bgp.Decision.Always_compare ?mrai ~proc_delay:(Time.ms 150)
    ~proc_jitter:(Time.ms 400)
    ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo)
    topo

(* A table's eBGP routes as (router, neighbor, route) injections, the
   workload form of [Verify.Static] and [Verify.Propagation]. *)
let injections routes =
  List.map (fun (r : RG.ebgp_route) -> (r.RG.router, r.RG.neighbor, r.RG.route)) routes

let precheck tr cfg = span tr "static.analyze" (fun () -> Verify.Static.analyze cfg)
let create tr ~seed cfg = span tr "network.create" (fun () -> N.create ~seed cfg)

let placements net =
  let sum = ref 0 in
  for i = 0 to N.router_count net - 1 do
    let r = N.router net i in
    sum :=
      !sum + R.loc_rib_entries r + R.rib_in_entries r + R.rib_out_entries r
      + R.rib_out_client_entries r + R.ebgp_entries r
  done;
  !sum

let counter_fields (c : C.t) =
  [
    ("counters.updates_received", fi c.C.updates_received);
    ("counters.decisions_run", fi c.C.decisions_run);
    ("counters.decisions_full", fi c.C.decisions_full);
    ("counters.decisions_delta", fi c.C.decisions_delta);
    ("counters.decisions_skipped", fi c.C.decisions_skipped);
    ("counters.rib_touches", fi c.C.rib_touches);
    ("counters.bytes_transmitted", fi c.C.bytes_transmitted);
  ]

let peak_rss_kb () =
  let c = C.create () in
  C.sample_mem c;
  c.C.mem_peak_kb

let heartbeat_every = 512

let with_heartbeat tr net f =
  match tr with
  | None -> f ()
  | Some t ->
    let stop = Spans.heartbeat t (N.sim net) ~every:heartbeat_every in
    Fun.protect ~finally:stop f

let sim_layers t ~run_s ~events =
  [
    ("network.run_s", run_s);
    ("sim.ns_per_event", if events > 0. then run_s *. 1e9 /. events else 0.);
    ("sim.queue_depth_p50", fi (Spans.depth_percentile t 50.));
    ("sim.queue_depth_max", fi (Spans.depth_percentile t 100.));
    ("sim.kind.deliver", fi (Spans.kind_events t N.trace_kind_deliver));
    ("sim.kind.timer", fi (Spans.kind_events t N.trace_kind_timer));
    ("sim.kind.external", fi (Spans.kind_events t N.trace_kind_external));
  ]

(* Decision kernel cost per call: an independent re-decision over every
   router's stored Adj-RIB-Ins for every prefix it knows. *)
let recompute_ns tr net =
  let work =
    List.init (N.router_count net) (fun i ->
        let r = N.router net i in
        (r, R.known_prefixes r))
  in
  span tr "decision.recompute" (fun () ->
      let calls = ref 0 in
      let t0 = now () in
      List.iter
        (fun (r, ps) ->
          List.iter
            (fun p ->
              ignore (Sys.opaque_identity (R.recomputed_best r p));
              incr calls)
            ps)
        work;
      if !calls = 0 then 0. else (now () -. t0) *. 1e9 /. fi !calls)

(* Wire sizing and encoding cost per route: one UPDATE per router
   announcing its whole Loc-RIB. *)
let wire_ns tr net =
  let updates =
    List.init (N.router_count net) (fun i ->
        let r = N.router net i in
        let announced = List.filter_map (R.best r) (R.known_prefixes r) in
        { Bgp.Msg.withdrawn = []; announced })
  in
  let routes =
    List.fold_left (fun a u -> a + List.length u.Bgp.Msg.announced) 0 updates
  in
  let per_route f =
    let t0 = now () in
    List.iter (fun u -> ignore (Sys.opaque_identity (f u))) updates;
    if routes = 0 then 0. else (now () -. t0) *. 1e9 /. fi routes
  in
  let measure =
    span tr "wire.measure" (fun () ->
        per_route (fun u -> Bgp.Wire.measure_update ~add_paths:true u))
  in
  let encode =
    span tr "wire.encode" (fun () ->
        per_route (fun u -> Bgp.Wire.encode ~add_paths:true (Bgp.Msg.Update u)))
  in
  [ ("wire.measure_ns", measure); ("wire.encode_ns", encode) ]

let median = function [] -> 0. | xs -> Metrics.Summary.median xs

(* {1 The repetition loop}

   A run generates a workload's [inputs] independent inputs from its
   seed and cycles through them, one repetition at a time, until its
   window is over. Every figure is first taken per repetition, then
   reduced by one rule ({!agg}): the median over each input's
   repetitions, averaged over the inputs. The median filters host noise;
   the average over inputs keeps one unusual input (a hot prefix with
   many routes, say) from moving the run's figure, so runs with
   different seeds agree. *)

let input_seed ~seed ~inputs k = (seed * inputs) + k

type sample = {
  input : int;  (** which of the run's inputs, [0 .. inputs - 1] *)
  setup_s : float;
  op_s : float;
  laps : (string * float) list;
      (** named figures of parts of the operation: sub-timings in s, and
          the feed lap's allocated words *)
  counts : (string * float) list;  (** deterministic work counts *)
  values : (string * float) list;
      (** per-layer metrics this repetition measured: counts, GC figures
          and rates when untraced; span and layer figures when traced *)
  rss_kb : int;  (** the repetition's own peak RSS *)
  host_s : float;
      (** the host-speed probe around the repetition ({!local_probe}) *)
  attempted : int;  (** correctness checks *)
  failed : int;
  trace : Spans.t option;
}

type ('env, 'out) workload = {
  inputs : int;  (** inputs per run, at most 64 *)
  setup : Spans.t option -> seed:int -> 'env;
      (** generate inputs and build the network or config *)
  op : Spans.t option -> 'env -> 'out * (string * float) list;
      (** the measured operation, with its laps *)
  check : Spans.t option -> Checks.t -> 'env -> 'out -> unit;
  work_counts : 'env -> 'out -> (string * float) list;
      (** deterministic work counts after the operation *)
  layers : Spans.t -> 'env -> 'out -> (string * float) list;
      (** per-layer metrics of one traced repetition *)
  derived : sample -> (string * float) list;
      (** per-layer metrics derived from one untraced repetition, whose
          [values] hold its counts and GC figures *)
}

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. fi (List.length xs)

(* The median of [f] over each input's repetitions, averaged over the
   inputs; repetitions where [f] is [None] do not count. *)
let agg f samples =
  List.sort_uniq compare (List.map (fun s -> s.input) samples)
  |> List.map (fun k ->
         List.filter_map (fun s -> if s.input = k then f s else None) samples)
  |> List.filter (fun g -> g <> [])
  |> List.map median |> mean

let value name samples = agg (fun s -> List.assoc_opt name s.values) samples

(* Spans of the shared set-up and check code, reported under the layer
   metric of the same name. *)
let span_metrics =
  [
    ("topo.generate_s", "topo.generate");
    ("route_gen.generate_s", "route_gen.generate");
    ("trace_gen.generate_s", "trace_gen.generate");
    ("static.analyze_s", "static.analyze");
    ("mrt.encode_s", "mrt.encode");
    ("network.create_s", "network.create");
    ("invariant.sweep_s", "invariant.check_now");
  ]

let repetition w ~seed ~input ~traced ~checked =
  let checks = Checks.create () in
  let tr = if traced then Some (Spans.create ()) else None in
  let s0 = now () in
  let env = w.setup tr ~seed:(input_seed ~seed ~inputs:w.inputs input) in
  let s1 = now () in
  let g0 = Gc.quick_stat () in
  let o0 = now () in
  let out, laps = w.op tr env in
  let o1 = now () in
  let g1 = Gc.quick_stat () in
  let gc =
    [
      ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ("gc.major_collections", fi (g1.Gc.major_collections - g0.Gc.major_collections));
      ("gc.top_heap_mb", fi g1.Gc.top_heap_words *. 8. /. 1048576.);
    ]
  in
  let counts = w.work_counts env out in
  if checked then w.check tr checks env out;
  let layers =
    match tr with
    | None -> []
    | Some t ->
      w.layers t env out
      @ List.filter_map
          (fun (metric, span) ->
            if Spans.calls t span > 0 then Some (metric, Spans.total t span) else None)
          span_metrics
  in
  let s =
    {
      input;
      setup_s = s1 -. s0;
      op_s = o1 -. o0;
      laps;
      counts;
      values = layers;
      rss_kb = peak_rss_kb ();
      host_s = 0.;
      attempted = checks.Checks.attempted;
      failed = checks.Checks.failed;
      trace = tr;
    }
  in
  if traced then s
  else
    let values = counts @ gc in
    { s with values = values @ w.derived { s with values } }

(* Every repetition runs in its own process, forked from one idle
   "zygote" process that was itself forked before any work: each
   repetition starts from the same process state, with the library's
   global intern tables fresh and an empty heap, and its peak RSS is its
   own. Allocation then depends only on the input, so it repeats exactly
   across repetitions and runs. The zygote reads a two-byte command per
   repetition (kind: 'u' untraced, 't' traced, upper case to run the
   correctness checks too; then the input index as a character counted
   from '0'), or 'p' for a host-speed probe in a process of its own, and
   never allocates anything that lives; replies come back marshalled
   through a pipe. *)
type zygote = { cmd : Unix.file_descr; results : in_channel; pid : int }

type reply = Sample of sample | Probe of float | Failed of string

let send_result oc (v : reply) =
  Marshal.to_channel oc v [];
  flush oc

let start_zygote w ~seed =
  flush stdout;
  flush stderr;
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close res_r;
    let oc = Unix.out_channel_of_descr res_w in
    let buf = Bytes.create 2 in
    let rec serve () =
      if Unix.read cmd_r buf 0 2 < 2 then Unix._exit 0;
      let c = Bytes.get buf 0 in
      let traced = Char.lowercase_ascii c = 't'
      and checked = Char.uppercase_ascii c = c
      and input = Char.code (Bytes.get buf 1) - Char.code '0' in
      match Unix.fork () with
      | 0 ->
        Gc.minor ();
        send_result oc
          (if c = 'p' then Probe (Host.probe ())
           else
             try Sample (repetition w ~seed ~input ~traced ~checked)
             with e -> Failed (Printexc.to_string e));
        flush stderr;
        Unix._exit 0
      | pid ->
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> send_result oc (Failed "repetition process died"));
        serve ()
    in
    serve ()
  | pid ->
    Unix.close cmd_r;
    Unix.close res_w;
    { cmd = cmd_w; results = Unix.in_channel_of_descr res_r; pid }

let ask z cmd =
  ignore (Unix.write_substring z.cmd cmd 0 2);
  try (Marshal.from_channel z.results : reply)
  with End_of_file | Failure _ -> Failed "no result from the repetition process"

let request z ~input ~traced ~checked =
  let c = if traced then 't' else 'u' in
  let c = if checked then Char.uppercase_ascii c else c in
  ask z (Printf.sprintf "%c%c" c (Char.chr (Char.code '0' + input)))

let probe z = match ask z "p0" with Probe s -> Some s | _ -> None

let stop_zygote z =
  Unix.close z.cmd;
  close_in z.results;
  ignore (Unix.waitpid [] z.pid)

(* The host speed around repetition [k], where probe [k] ran just
   before it and probe [k + 1] just after: the mean of the probes within
   two of it, [k - 1 .. k + 2]. The host alternates between fast and
   slow spells a few seconds long, so a probe next to the repetition
   tracks it better than the run's mean does, and four probes average
   out most of a single probe's own noise. *)
let local_probe (probes : float option array) k =
  let near = ref [] in
  for i = max 0 (k - 1) to min (Array.length probes - 1) (k + 2) do
    Option.iter (fun p -> near := p :: !near) probes.(i)
  done;
  mean !near

type measured = {
  inputs : int;
  checks : Checks.t;
  untraced : sample list;
  traced : sample list;
}

let measure (w : (_, _) workload) ~seed ~seconds ~trace =
  let checks = Checks.create () in
  let inputs = w.inputs in
  let first_counts = Array.make inputs None in
  (* Deterministic counts, allocation included, must equal those of the
     input's first untraced repetition; traced repetitions allocate for
     the trace itself, so theirs are compared without it. *)
  let repeatable s ~traced =
    let counts =
      if traced then s.counts
      else s.counts @ [ ("gc.minor_words", List.assoc "gc.minor_words" s.values) ]
    in
    match first_counts.(s.input) with
    | None -> first_counts.(s.input) <- Some counts
    | Some expected ->
      let expected =
        if traced then List.remove_assoc "gc.minor_words" expected else expected
      in
      Checks.record checks "work counts repeat" (Checks.same_counts ~expected counts)
  in
  let z = start_zygote w ~seed in
  (* The first process forked from the zygote runs slow; warm up. *)
  ignore (probe z);
  (* Round-robin over the inputs until every input ran once and the next
     repetition would not end inside [seconds] (judged by how long that
     input's previous one took), probing the host speed before every
     repetition and after the last. The correctness checks run on each
     input's first repetition of a kind; equal work counts show that the
     later repetitions computed the same. *)
  let reps ~seconds ~traced =
    let t0 = now () in
    let took = Array.make inputs 0. in
    let probes = ref [] in
    let rec go acc n =
      let r0 = now () in
      let p = probe z in
      Option.iter (fun p -> Printf.eprintf "probe %.4f s\n%!" p) p;
      probes := p :: !probes;
      let input = n mod inputs in
      if n >= inputs && now () -. t0 +. took.(input) > seconds then List.rev acc
      else
        let reply = request z ~input ~traced ~checked:(n < inputs) in
        took.(input) <- now () -. r0;
        match reply with
        | Sample s ->
          Printf.eprintf "repetition%s: input %d, setup %.4f s, op %.4f s\n%!"
            (if traced then " (traced)" else "")
            s.input s.setup_s s.op_s;
          checks.Checks.attempted <- checks.Checks.attempted + s.attempted;
          checks.Checks.failed <- checks.Checks.failed + s.failed;
          repeatable s ~traced;
          go ((n, s) :: acc) (n + 1)
        | Failed msg ->
          Checks.record checks ("repetition completed: " ^ msg) false;
          go acc (n + 1)
        | Probe _ ->
          Checks.record checks "repetition completed: a probe replied" false;
          go acc (n + 1)
    in
    let samples = go [] 0 in
    let probes = Array.of_list (List.rev !probes) in
    List.map (fun (k, s) -> { s with host_s = local_probe probes k }) samples
  in
  let window = if trace then seconds /. 2. else seconds in
  let untraced = reps ~seconds:window ~traced:false in
  let traced = if trace then reps ~seconds:window ~traced:true else [] in
  stop_zygote z;
  { inputs; checks; untraced; traced }

(* {1 feed} *)

type feed = {
  f_seed : int;
  f_cfg : Abrr_core.Config.t;
  f_table : RG.t;
  f_static : Verify.Report.t;
  f_net : N.t;
}

type feed_out = {
  f_outcome : Sim.outcome;
  f_live_words : float option;
      (** words reachable from the converged network, before the
          checkpoint; traced repetitions only, since the census walks the
          whole network *)
  f_snapshot : (string, string) result;
  f_restored : N.t;
  f_decoded : (unit, string) result;
}

(* Evenly spaced prefixes whose egress the propagation oracle checks. *)
let feed_sample table =
  let n = Array.length table.RG.prefixes in
  let k = min feed_sample_prefixes n in
  List.init k (fun i -> i * (n / k))

let feed =
  {
    inputs = 8;
    setup =
      (fun tr ~seed ->
        let topo = tier1_topo tr ~seed in
        let table = route_table tr topo ~prefixes:feed_prefixes ~seed in
        let cfg = abrr_config topo in
        let static = precheck tr cfg in
        { f_seed = seed; f_cfg = cfg; f_table = table; f_static = static;
          f_net = create tr ~seed cfg });
    op =
      (fun tr e ->
        let t0 = now () in
        let w0 = Gc.minor_words () in
        let outcome =
          with_heartbeat tr e.f_net (fun () ->
              span tr "route_gen.inject_all" (fun () ->
                  RG.inject_all e.f_table e.f_net);
              span tr "network.run" (fun () -> N.run ~max_events:max_int e.f_net))
        in
        let w1 = Gc.minor_words () in
        let t1 = now () in
        let live_words =
          Option.map (fun _ -> fi (Obj.reachable_words (Obj.repr e.f_net))) tr
        in
        (* The checkpoint lap starts after the census. *)
        let c0 = now () in
        let snapshot = span tr "snapshot.encode" (fun () -> Snapshot.encode e.f_net) in
        let restored =
          span tr "checkpoint.create" (fun () -> N.create ~seed:e.f_seed e.f_cfg)
        in
        let decoded =
          match snapshot with
          | Ok s -> span tr "snapshot.decode" (fun () -> Snapshot.decode restored s)
          | Error m -> Error m
        in
        let t2 = now () in
        ( { f_outcome = outcome; f_live_words = live_words; f_snapshot = snapshot;
            f_restored = restored; f_decoded = decoded },
          [
            ("feed_s", t1 -. t0);
            ("checkpoint_s", t2 -. c0);
            ("feed.alloc_words", w1 -. w0);
          ] ));
    check =
      (fun tr checks e o ->
        let record = Checks.record checks in
        record "feed: static precheck" (Verify.Report.ok e.f_static);
        record "feed: converged" (o.f_outcome = Sim.Quiescent);
        record "feed: restored digest = live digest"
          (match (o.f_snapshot, o.f_decoded) with
          | Ok snapshot, Ok () ->
            span tr "check.digest" (fun () ->
                Checks.restored_matches ~snapshot o.f_restored)
          | _ -> false);
        record "feed: invariants"
          (span tr "invariant.check_now" (fun () -> Checks.invariants_hold e.f_net));
        (* Egress oracle: the symbolic propagation fixpoint over just the
           sampled prefixes' injections. *)
        let sample = feed_sample e.f_table in
        let workload =
          List.concat_map (fun i -> injections e.f_table.RG.routes.(i)) sample
        in
        let solved = span tr "check.propagation" (fun () -> P.solve e.f_cfg workload) in
        List.iter
          (fun i ->
            record "feed: best exits = propagation exits"
              (Checks.exits_agree e.f_net solved e.f_table.RG.prefixes.(i)))
          sample);
    work_counts =
      (fun e o ->
        ("input.routes", fi (RG.total_routes e.f_table))
        :: ("sim.events", fi (Sim.events_processed (N.sim e.f_net)))
        :: ("rib.placements", fi (placements e.f_net))
        :: ("snapshot.bytes",
            match o.f_snapshot with Ok s -> fi (String.length s) | Error _ -> 0.)
        :: counter_fields (N.total_counters e.f_net));
    layers =
      (fun t e o ->
        let run_s = Spans.total t "network.run" in
        let c = N.total_counters e.f_net in
        let placements = fi (placements e.f_net) in
        let live_bytes = Option.fold ~none:0. ~some:(fun w -> w *. 8.) o.f_live_words in
        sim_layers t ~run_s ~events:(fi (Sim.events_processed (N.sim e.f_net)))
        @ wire_ns (Some t) e.f_net
        @ [
            ("decision.recompute_ns", recompute_ns (Some t) e.f_net);
            ( "feed.ns_per_update",
              if c.C.updates_received = 0 then 0.
              else run_s *. 1e9 /. fi c.C.updates_received );
            ("route.interned_attr_blocks", fi (Bgp.Route.interned_attrs ()));
            ("feed.network_live_mb", live_bytes /. 1048576.);
            ("rib.bytes_per_placement", live_bytes /. placements);
            ("snapshot.encode_s", Spans.total t "snapshot.encode");
            ("snapshot.decode_s", Spans.total t "snapshot.decode");
          ]);
    derived =
      (fun s ->
        let routes = List.assoc "input.routes" s.counts in
        [
          ("feed_routes_per_s", routes /. List.assoc "feed_s" s.laps);
          ("checkpoint_s", List.assoc "checkpoint_s" s.laps);
          ( "feed.alloc_words_per_route",
            List.assoc "feed.alloc_words" s.laps /. routes );
        ]);
  }

(* {1 churn} *)

let work_dir = Filename.concat "perfbench" "out"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

type churn = {
  c_net : N.t;
  c_static : Verify.Report.t;
  c_converged : Sim.outcome;
  c_mrt : string;
  c_actions : int;  (** trace announcements + withdrawals *)
  c_before : C.t;  (** counters after the set-up convergence *)
  c_events_before : int;
}

type churn_out = { c_replay : (Sim.outcome, string) result; c_decode_s : float }

let churn_counters e = C.diff ~after:(N.total_counters e.c_net) ~before:e.c_before

let churn =
  {
    inputs = churn_inputs;
    setup =
      (fun tr ~seed ->
        let topo = tier1_topo tr ~seed in
        let table = route_table tr topo ~prefixes:churn_prefixes ~seed in
        let cfg = abrr_config ~mrai:churn_mrai topo in
        let static = precheck tr cfg in
        let net = create tr ~seed cfg in
        let converged =
          span tr "setup.converge" (fun () ->
              RG.inject_all table net;
              N.run ~max_events:max_int net)
        in
        let events =
          span tr "trace_gen.generate" (fun () ->
              TG.generate table
                (TG.spec ~events:churn_events
                   ~duration:(Time.days 14) ~jitter:(Time.ms 80)
                   ~single_point_share:0.35 ~flap_share:0.45
                   ~seed ()))
        in
        ensure_work_dir ();
        let path =
          Filename.concat work_dir (Printf.sprintf "churn-%d.mrt" (Unix.getpid ()))
        in
        span tr "mrt.encode" (fun () ->
            Mrt.save path ~local_as:(Bgp.Asn.of_int 65000) events);
        let announce, withdraw = TG.action_count events in
        {
          c_net = net;
          c_static = static;
          c_converged = converged;
          c_mrt = path;
          c_actions = announce + withdraw;
          c_before = C.copy (N.total_counters net);
          c_events_before = Sim.events_processed (N.sim net);
        });
    op =
      (fun tr e ->
        let decode_s = ref 0. in
        let replay =
          match Mrt.open_stream e.c_mrt with
          | Error m -> Error m
          | Ok stream ->
            let next =
              match tr with
              | None -> fun () -> Mrt.next stream
              | Some _ ->
                fun () ->
                  let t0 = now () in
                  let ev = Mrt.next stream in
                  decode_s := !decode_s +. (now () -. t0);
                  ev
            in
            Fun.protect
              ~finally:(fun () ->
                Mrt.close_stream stream;
                Sys.remove e.c_mrt)
              (fun () ->
                with_heartbeat tr e.c_net (fun () ->
                    span tr "trace_gen.replay" (fun () -> TG.replay e.c_net next)))
        in
        Spans.add tr "mrt.decode" ~seconds:!decode_s;
        ({ c_replay = replay; c_decode_s = !decode_s }, []));
    check =
      (fun tr checks e o ->
        let record = Checks.record checks in
        record "churn: static precheck" (Verify.Report.ok e.c_static);
        record "churn: table converged in set-up" (e.c_converged = Sim.Quiescent);
        record "churn: replay quiesced" (o.c_replay = Ok Sim.Quiescent);
        record "churn: invariants"
          (span tr "invariant.check_now" (fun () -> Checks.invariants_hold e.c_net)));
    work_counts =
      (fun e _ ->
        ("input.actions", fi e.c_actions)
        :: ("sim.events", fi (Sim.events_processed (N.sim e.c_net) - e.c_events_before))
        :: ("rib.placements", fi (placements e.c_net))
        :: counter_fields (churn_counters e));
    layers =
      (fun t e o ->
        let run_s = Spans.total t "trace_gen.replay" -. o.c_decode_s in
        let events = fi (Sim.events_processed (N.sim e.c_net) - e.c_events_before) in
        sim_layers t ~run_s ~events
        @ wire_ns (Some t) e.c_net
        @ [
            ("decision.recompute_ns", recompute_ns (Some t) e.c_net);
            ("mrt.decode_s", o.c_decode_s);
            ("route.interned_attr_blocks", fi (Bgp.Route.interned_attrs ()));
          ]);
    derived =
      (fun s ->
        let actions = List.assoc "input.actions" s.counts in
        [
          ("churn_actions_per_s", actions /. s.op_s);
          ( "churn.alloc_words_per_action",
            List.assoc "gc.minor_words" s.values /. actions );
        ]);
  }

(* {1 drills} *)

let drills =
  {
    inputs = 8;
    setup =
      (fun tr ~seed ->
        span tr "scenario.env" (fun () ->
            Scenario.Catalog.env
              (Scenario.Catalog.spec ~pops:drill_pops
                 ~routers_per_pop:drill_routers_per_pop ~peer_ases:drill_peer_ases
                 ~peering_points_per_as:drill_points ~prefixes:drill_prefixes
                 ~seed ())));
    op =
      (fun tr env ->
        List.map
          (fun name ->
            let t0 = now () in
            let r =
              span tr ("drill." ^ name) (fun () ->
                  Scenario.Catalog.run env ~scheme:"abrr" name)
            in
            (r, ("drill." ^ name ^ "_s", now () -. t0)))
          Scenario.Catalog.names
        |> List.split);
    check =
      (fun _ checks _ results ->
        List.iter
          (fun (r : Scenario.Engine.result) ->
            List.iter
              (fun (c : Scenario.Engine.check) ->
                Checks.record checks ("drill " ^ r.name ^ ": " ^ c.label) c.ok)
              r.checks;
            Checks.record checks
              ("drill " ^ r.name ^ ": passed with no invariant violations")
              (Checks.drill_passed r))
          results);
    work_counts =
      (fun _ results ->
        let total = C.create () in
        List.iter (fun (r : Scenario.Engine.result) -> C.add total r.counters) results;
        let events = List.map (fun (r : Scenario.Engine.result) -> r.events) results in
        List.map2
          (fun name n -> ("drill." ^ name ^ ".events", fi n))
          Scenario.Catalog.names events
        @ ("sim.events", fi (List.fold_left ( + ) 0 events)) :: counter_fields total);
    layers = (fun t _ _ -> [ ("scenario.env_s", Spans.total t "scenario.env") ]);
    derived = (fun s -> ("drills_s", s.op_s) :: s.laps);
  }

(* {1 lint} *)

type lint = { l_cfg : Abrr_core.Config.t; l_workload : Verify.Static.workload }

let lint =
  {
    inputs = lint_inputs;
    setup =
      (fun tr ~seed ->
        let topo =
          span tr "topo.generate" (fun () ->
              T.generate
                (T.spec ~pops:lint_pops ~routers_per_pop:lint_routers_per_pop
                   ~peer_ases:15 ~peering_points_per_as:6 ~seed ()))
        in
        let table = route_table tr topo ~prefixes:lint_prefixes ~seed in
        let cfg =
          T.config ~med_mode:Bgp.Decision.Always_compare
            ~scheme:(T.abrr_scheme ~aps:8 ~arrs_per_ap:2 topo)
            topo
        in
        let workload = List.concat_map injections (Array.to_list table.RG.routes) in
        { l_cfg = cfg; l_workload = workload });
    op =
      (fun tr e ->
        ( span tr "static.lint_solved" (fun () ->
              Verify.Static.lint_solved ~workload:e.l_workload e.l_cfg),
          [] ));
    check =
      (fun _ checks _ (_, report) ->
        Checks.record checks "lint: report ok" (Verify.Report.ok report));
    work_counts =
      (fun _ (solved, _) ->
        let s = P.stats solved in
        [
          ("propagation.node_evals", fi s.P.node_evals);
          ("propagation.spf_rows", fi s.P.spf_rows);
          ("propagation.classes", fi (P.class_count solved));
        ]);
    layers =
      (fun t e (solved, _) ->
        (* One deterministic what-if on top of the full solve: fail the
           lowest link of the topology and re-solve incrementally. *)
        let whatif_evals =
          span (Some t) "propagation.whatif" (fun () ->
              match Igp.Graph.neighbors e.l_cfg.Abrr_core.Config.igp 0 with
              | (v, _) :: _ -> (
                match P.apply_delta solved (P.Fail_link (0, v)) with
                | Ok d -> fi (P.stats d).P.node_evals
                | Error _ -> 0.)
              | [] -> 0.)
        in
        [
          ("propagation.whatif_s", Spans.total t "propagation.whatif");
          ("propagation.whatif_node_evals", whatif_evals);
        ]);
    derived =
      (fun s ->
        [
          ("lint_s", s.op_s);
          ( "propagation.us_per_node_eval",
            s.op_s *. 1e6 /. List.assoc "propagation.node_evals" s.counts );
        ]);
  }
