(* Bench-side layer spans and per-layer attribution over an Obs trace.

   The benchmark wraps each of its own calls into a layer in an Obs
   span named "pb:<layer>.<function>"; the program's own spans (chase,
   dispatcher, incremental engine) nest under them.  A span's self
   time is its duration minus the durations of its children (children
   always run on the parent's lane: Obs keeps one span stack per
   domain).  Allocation is the Gc.minor_words delta across each bench
   span, which is exact on the single-domain workloads. *)

let alloc : (string, float) Hashtbl.t = Hashtbl.create 32

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let span name f =
  if not (Obs.enabled ()) then f ()
  else
    let w0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () -> add alloc name (Gc.minor_words () -. w0))
      (fun () -> Obs.with_span name f)

let reset () = Hashtbl.reset alloc

let layers =
  [ "exl"; "mappings"; "analysis"; "relational"; "vector"; "etl"; "engine";
    "exchange"; "matrix"; "serve" ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The layer a span's self time belongs to; [None] for the bench's own
   per-op span. *)
let layer_of (s : Obs.Trace.span) =
  let name = s.Obs.Trace.name in
  if name = "pb:op" then None
  else if starts_with "pb:" name then
    let rest = String.sub name 3 (String.length name - 3) in
    match String.index_opt rest '.' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  else if starts_with "chase." name || starts_with "shard." name then
    Some "exchange"
  else
    let attr k = List.assoc_opt k s.Obs.Trace.attrs in
    (* the dispatcher's execute attempts run the target system's code;
       everything else it does (translation lookups, merge-back,
       history) is the engine's *)
    if name = "dispatch.retry" && attr "stage" = Some "execute" then
      match attr "target" with
      | Some "sql" -> Some "relational"
      | Some "vector" -> Some "vector"
      | Some "etl" -> Some "etl"
      | _ -> Some "engine"
    else Some "engine"

type totals = {
  self_by_name : (string, float) Hashtbl.t;  (** seconds *)
  incl_by_name : (string, float) Hashtbl.t;  (** seconds, children included *)
  count_by_name : (string, int) Hashtbl.t;
  self_by_layer : (string, float) Hashtbl.t;
  op_seconds : float;  (** summed duration of the "pb:op" spans *)
}

let totals (spans : Obs.Trace.span list) =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Trace.span) ->
      match s.parent with
      | Some p -> add children p s.duration_s
      | None -> ())
    spans;
  let self_by_name = Hashtbl.create 64 in
  let incl_by_name = Hashtbl.create 64 in
  let count_by_name = Hashtbl.create 64 in
  let self_by_layer = Hashtbl.create 16 in
  let op_seconds = ref 0. in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let child = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      let self = Float.max 0. (s.duration_s -. child) in
      add self_by_name s.name self;
      add incl_by_name s.name s.duration_s;
      Hashtbl.replace count_by_name s.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt count_by_name s.name));
      if s.name = "pb:op" then op_seconds := !op_seconds +. s.duration_s;
      match layer_of s with
      | Some l -> add self_by_layer l self
      | None -> ())
    spans;
  {
    self_by_name;
    incl_by_name;
    count_by_name;
    self_by_layer;
    op_seconds = !op_seconds;
  }

let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)
let calls t name = Option.value ~default:0 (Hashtbl.find_opt t.count_by_name name)

(* Mean time of one span name per op, ms — children included: what the
   caller of that layer function waits for. *)
let ms_per_op t ~ops name = 1000. *. get t.incl_by_name name /. float_of_int (max 1 ops)

(* Mean time of one span name per call, ms, children included. *)
let ms_per_call t name =
  let n = calls t name in
  if n = 0 then 0. else 1000. *. get t.incl_by_name name /. float_of_int n

(* Mean self time of one span name per call, ms. *)
let self_ms_per_call t name =
  let n = calls t name in
  if n = 0 then 0. else 1000. *. get t.self_by_name name /. float_of_int n

let alloc_mw_per_op ~ops name = get alloc name /. 1e6 /. float_of_int (max 1 ops)

(* Each layer's self time as a share of the traced ops' wall time —
   zero for a layer the workload never enters. *)
let shares t =
  List.map
    (fun l ->
      let self = get t.self_by_layer l in
      Measure.m (l ^ ".self_pct") "%"
        (if t.op_seconds > 0. then 100. *. self /. t.op_seconds else 0.))
    layers

let counter (c : Obs.t) name =
  float_of_int (Obs.Metrics.counter_value c.Obs.metrics name)

let ratio num den = if den = 0. then 0. else num /. den

(* The per-layer metrics every workload reports (BENCHMARK.json's
   per_layer list): self-time shares plus these counts and ratios.  A
   figure a workload does not produce reads 0. *)
let common =
  [
    ("analysis.tgds_kept_ratio", "ratio");
    ("engine.translation_hit_ratio", "ratio");
    ("relational.view_memo_hit_ratio", "ratio");
    ("exchange.matches_per_tuple", "ratio");
    ("exchange.rederived_per_changed", "ratio");
    ("serve.jobs_per_commit", "ratio");
    ("matrix.store_bytes_per_fact", "B");
    ("alloc_mw_per_op", "Mw");
    ("obs.overhead_pct", "%");
  ]

let per_layer t values =
  shares t
  @ List.map
      (fun (name, unit_) ->
        Measure.m name unit_
          (Option.value ~default:0. (List.assoc_opt name values)))
      common

let matches_per_tuple c =
  ratio (counter c "chase.matches_examined") (counter c "chase.tuples_generated")

(* Traced op latency against untraced, percent. *)
let overhead_pct ~plain ~traced = 100. *. ((traced /. plain) -. 1.)

(* Write the run's spans as a Chrome trace (Perfetto, chrome://tracing). *)
let export_chrome (c : Obs.t) ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Obs.Export.chrome_trace c.Obs.trace))

type traced = {
  plain : Measure.run;  (** the untraced half *)
  traced : Measure.run;  (** the traced half, each op in a "pb:op" span *)
  collector : Obs.t;
  t : totals;
  words_per_op : float;  (** minor words per traced op *)
}

(* The traced run: half the budget untraced, then half under a fresh
   collector.  Comparing the halves' medians gives the tracing
   overhead.  [on_trace] runs between the halves, to reset the
   workload's own per-op tallies. *)
let traced_run ?(on_trace = ignore) ~seconds op =
  let loop f = Measure.closed_loop ~seconds:(seconds /. 2.) ~min_ops:20 f in
  let plain = loop op in
  on_trace ();
  let collector = Obs.create () in
  reset ();
  let w0 = Gc.minor_words () in
  let traced =
    Obs.with_collector collector (fun () ->
        loop (fun i -> span "pb:op" (fun () -> op i)))
  in
  let words = Gc.minor_words () -. w0 in
  {
    plain;
    traced;
    collector;
    t = totals (Obs.Trace.spans collector.Obs.trace);
    words_per_op = words /. float_of_int (max 1 traced.Measure.ops);
  }

let overhead r =
  overhead_pct
    ~plain:(Measure.latency_ms r.plain 0.5)
    ~traced:(Measure.latency_ms r.traced 0.5)
