(* Benchmark-side tracing. A span is recorded around every call the
   benchmark makes into a library layer (name, start, end, parent,
   allocated words); on simulation workloads a simulator heartbeat
   samples progress and drains the program's own event-trace sink.
   Everything stays in memory and is written out once, at the end of
   the run. With tracing off ([None]) a span is one [match] and a
   direct call, so untraced repetitions time the bare library. *)

module Sim = Eventsim.Sim
module J = Metrics.Emit

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;  (** seconds since the trace's origin *)
  stop : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

type beat = {
  at : float;  (** seconds since the trace's origin *)
  events : int;  (** [Sim.events_processed] *)
  pending : int;  (** [Sim.pending] *)
  heap_words : int;
  minor_words : float;
}

(* Per-event tallies over the sink entries drained by the heartbeat. *)
type sink_tally = {
  kinds : (int, int) Hashtbl.t;  (** event kind -> events *)
  depths : (int, int) Hashtbl.t;  (** queue depth -> events *)
  mutable drained : int;
}

type t = {
  origin : float;
  mutable spans : span list;  (** completed spans, newest first *)
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable next_id : int;
  mutable beats : beat list;  (** newest first *)
  tally : sink_tally;
}

let create () =
  {
    origin = Unix.gettimeofday ();
    spans = [];
    stack = [];
    next_id = 0;
    beats = [];
    tally = { kinds = Hashtbl.create 8; depths = Hashtbl.create 256; drained = 0 };
  }

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () -. t.origin in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () -. t.origin in
        t.stack <- List.tl t.stack;
        t.spans <-
          { id; parent; name; start; stop; words = Gc.minor_words () -. w0 }
          :: t.spans)

(* Charge an already-measured duration (seconds) as a leaf span under
   the innermost open span — for calls too small and too many to wrap
   one by one, such as per-event MRT decoding. *)
let add tr name ~seconds =
  match tr with
  | None -> ()
  | Some t ->
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let stop = Unix.gettimeofday () -. t.origin in
    t.spans <-
      { id; parent; name; start = stop -. seconds; stop; words = 0. } :: t.spans

let named t name = List.filter (fun s -> String.equal s.name name) t.spans
let total t name =
  List.fold_left (fun a s -> a +. (s.stop -. s.start)) 0. (named t name)
let calls t name = List.length (named t name)

(* Self time: the span's duration minus the time its children cover. *)
let self_time t s =
  List.fold_left
    (fun a c -> if c.parent = s.id then a -. (c.stop -. c.start) else a)
    (s.stop -. s.start) t.spans

let drain t sink =
  List.iter
    (fun (e : Sim.Trace.entry) ->
      let bump tbl k =
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      bump t.tally.kinds e.Sim.Trace.kind;
      bump t.tally.depths e.Sim.Trace.depth;
      t.tally.drained <- t.tally.drained + 1)
    (Sim.Trace.entries sink);
  Sim.Trace.clear sink

(* Attach a sink recording every event and a heartbeat probe every
   [every] events that samples progress and drains the sink before its
   ring (capacity [2 * every]) can wrap, so the kind and depth tallies
   cover every event. The returned function drains the remainder and
   detaches both. *)
let heartbeat t sim ~every =
  let sink = Sim.Trace.make ~capacity:(2 * every) ~sample_every:1 () in
  Sim.set_sink sim sink;
  Sim.set_probe sim ~every (fun () ->
      let q = Gc.quick_stat () in
      t.beats <-
        {
          at = Unix.gettimeofday () -. t.origin;
          events = Sim.events_processed sim;
          pending = Sim.pending sim;
          heap_words = q.Gc.heap_words;
          minor_words = q.Gc.minor_words;
        }
        :: t.beats;
      drain t sink);
  fun () ->
    drain t sink;
    Sim.clear_probe sim;
    Sim.clear_sink sim

let kind_events t kind =
  Option.value ~default:0 (Hashtbl.find_opt t.tally.kinds kind)

(* Queue-depth percentile (0..100) over every drained event. *)
let depth_percentile t q =
  let sorted =
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) t.tally.depths []
    |> List.sort compare
  in
  let target =
    Float.to_int (Float.ceil (q /. 100. *. float_of_int t.tally.drained))
  in
  let rec go seen = function
    | [] -> 0
    | [ (d, _) ] -> d
    | (d, n) :: rest -> if seen + n >= target then d else go (seen + n) rest
  in
  go 0 sorted

let to_json t =
  let f x = J.Float x and i x = J.Int x in
  J.Obj
    [
      ( "spans",
        J.Arr
          (List.rev_map
             (fun s ->
               J.Obj
                 [ ("id", i s.id); ("parent", i s.parent); ("name", J.Str s.name);
                   ("start_s", f s.start); ("end_s", f s.stop);
                   ("self_s", f (self_time t s)); ("words", f s.words) ])
             t.spans) );
      ( "heartbeat",
        J.Arr
          (List.rev_map
             (fun b ->
               J.Obj
                 [ ("at_s", f b.at); ("events", i b.events); ("pending", i b.pending);
                   ("heap_words", i b.heap_words); ("minor_words", f b.minor_words) ])
             t.beats) );
    ]
