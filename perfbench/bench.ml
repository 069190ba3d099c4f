(* The repository benchmark's entry point:

     bench.exe --workload feed|churn|drills|lint --seed N --seconds S --trace 0|1

   runs one workload for S seconds and prints, as the last line of
   standard output, one JSON object with the correctness counts and the
   metrics: the end-to-end ones with tracing off (--trace 0), the
   per-layer ones with tracing on (--trace 1). Diagnostics go to
   standard error. perfbench/run.py builds and runs this; README.md
   documents the workloads and metrics. *)

open Perfbench
module W = Workloads
module J = Metrics.Emit

let end_to_end = [ ("setup_s", "s"); ("op_s", "s"); ("peak_rss_mb", "MB") ]

let drill_names = Scenario.Catalog.names

let per_layer =
  [
    ("host.ref_loop_s", "s");
    ("wall.setup_s", "s");
    ("wall.op_s", "s");
    ("overhead.setup_s", "ratio");
    ("overhead.op_s", "ratio");
    ("overhead.peak_rss_mb", "ratio");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("topo.generate_s", "s");
    ("route_gen.generate_s", "s");
    ("trace_gen.generate_s", "s");
    ("static.analyze_s", "s");
    ("mrt.encode_s", "s");
    ("mrt.decode_s", "s");
    ("network.create_s", "s");
    ("network.run_s", "s");
    ("input.routes", "count");
    ("input.actions", "count");
    ("feed_routes_per_s", "1/s");
    ("checkpoint_s", "s");
    ("churn_actions_per_s", "1/s");
    ("drills_s", "s");
    ("lint_s", "s");
    ("feed.ns_per_update", "ns");
    ("feed.alloc_words_per_route", "words");
    ("churn.alloc_words_per_action", "words");
    ("counters.updates_received", "count");
    ("counters.decisions_run", "count");
    ("counters.decisions_full", "count");
    ("counters.decisions_delta", "count");
    ("counters.decisions_skipped", "count");
    ("counters.rib_touches", "count");
    ("counters.bytes_transmitted", "B");
    ("decision.skip_ratio", "ratio");
    ("decision.recompute_ns", "ns");
    ("rib.placements", "count");
    ("rib.bytes_per_placement", "B");
    ("feed.network_live_mb", "MB");
    ("route.interned_attr_blocks", "count");
    ("sim.events", "count");
    ("sim.ns_per_event", "ns");
    ("sim.queue_depth_p50", "events");
    ("sim.queue_depth_max", "events");
    ("sim.kind.deliver", "count");
    ("sim.kind.timer", "count");
    ("sim.kind.external", "count");
    ("wire.measure_ns", "ns");
    ("wire.encode_ns", "ns");
    ("snapshot.encode_s", "s");
    ("snapshot.decode_s", "s");
    ("snapshot.bytes", "B");
    ("scenario.env_s", "s");
  ]
  @ List.map (fun n -> ("drill." ^ n ^ "_s", "s")) drill_names
  @ List.map (fun n -> ("drill." ^ n ^ ".events", "count")) drill_names
  @ [
      ("propagation.node_evals", "count");
      ("propagation.spf_rows", "count");
      ("propagation.classes", "count");
      ("propagation.us_per_node_eval", "us");
      ("propagation.whatif_s", "s");
      ("propagation.whatif_node_evals", "count");
      ("invariant.sweep_s", "s");
    ]

let fi = float_of_int

(* A repetition's time at the reference host speed (host.ml). *)
let at_reference_speed f (s : W.sample) = f s *. Host.scale ~probe_s:s.W.host_s
let setup_s = at_reference_speed (fun s -> s.W.setup_s)
let op_s = at_reference_speed (fun s -> s.W.op_s)

(* Each per-layer metric comes from the traced repetitions when they
   measured it, else from the untraced ones; tracing overhead compares a
   traced repetition with the untraced median of the same input, times
   at the reference host speed. *)
let layer_values (r : W.measured) =
  let untraced = r.W.untraced and traced = r.W.traced in
  let untraced_median f k =
    W.median
      (List.filter_map
         (fun (s : W.sample) -> if s.W.input = k then Some (f s) else None)
         untraced)
  in
  let overhead f =
    W.agg
      (fun s ->
        let base = untraced_median f s.W.input in
        if base > 0. then Some ((f s /. base) -. 1.) else None)
      traced
  in
  let generic =
    [
      ("host.ref_loop_s", W.agg (fun s -> Some s.W.host_s) (untraced @ traced));
      ("wall.setup_s", W.agg (fun s -> Some s.W.setup_s) untraced);
      ("wall.op_s", W.agg (fun s -> Some s.W.op_s) untraced);
      ("overhead.setup_s", overhead setup_s);
      ("overhead.op_s", overhead op_s);
      ("overhead.peak_rss_mb", overhead (fun s -> fi s.W.rss_kb));
      ( "decision.skip_ratio",
        let run = W.value "counters.decisions_run" untraced in
        if run > 0. then W.value "counters.decisions_skipped" untraced /. run else 0. );
    ]
  in
  List.map
    (fun (name, _) ->
      let measured_in =
        List.exists (fun (s : W.sample) -> List.mem_assoc name s.W.values)
      in
      ( name,
        match List.assoc_opt name generic with
        | Some v -> v
        | None ->
          if measured_in traced then W.value name traced else W.value name untraced ))
    per_layer

let write_traces ~workload ~seed (r : W.measured) =
  W.ensure_work_dir ();
  let path =
    Filename.concat W.work_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str workload);
            ("seed", J.Int seed);
            ( "repetitions",
              J.Arr
                (List.filter_map
                   (fun (s : W.sample) -> Option.map Spans.to_json s.W.trace)
                   r.W.traced) );
          ]));
  close_out oc;
  prerr_endline ("trace written to " ^ path)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage =
    "bench.exe --workload feed|churn|drills|lint --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  let measure w = W.measure w ~seed:!seed ~seconds:!seconds ~trace:traced in
  let r =
    match !workload with
    | "feed" -> measure W.feed
    | "churn" -> measure W.churn
    | "drills" -> measure W.drills
    | "lint" -> measure W.lint
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  List.iter
    (fun (s : W.sample) ->
      if s.W.trace = None then
        Printf.eprintf "input %d counts: %s\n" s.W.input
          (String.concat " "
             (List.map (fun (n, v) -> Printf.sprintf "%s=%.0f" n v) s.W.counts)))
    (List.filteri (fun i _ -> i < r.W.inputs) r.W.untraced);
  Printf.eprintf "host.ref_loop_s = %.4f\n%!"
    (W.agg (fun s -> Some s.W.host_s) (r.W.untraced @ r.W.traced));
  if traced then write_traces ~workload:!workload ~seed:!seed r;
  let metrics =
    if traced then layer_values r
    else
      [
        ("setup_s", W.agg (fun s -> Some (setup_s s)) r.W.untraced);
        ("op_s", W.agg (fun s -> Some (op_s s)) r.W.untraced);
        ("peak_rss_mb", W.agg (fun s -> Some (fi s.W.rss_kb /. 1024.)) r.W.untraced);
      ]
  in
  let units = if traced then per_layer else end_to_end in
  let c = r.W.checks in
  print_endline
    (J.to_string ~compact:true
       (J.Obj
          [
            ("correct", J.Bool (c.Checks.failed = 0));
            ("attempted", J.Int c.Checks.attempted);
            ("failed", J.Int c.Checks.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, v) ->
                     let unit_ = J.Str (List.assoc name units) in
                     (name, J.Obj [ ("value", J.Float v); ("unit", unit_) ]))
                   metrics) );
          ]))
