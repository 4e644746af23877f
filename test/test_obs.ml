(* Tests for the exl-obs telemetry library (lib/obs): the monotonic
   clock, the metrics registry, span nesting and parent links, the
   disabled no-op path, the exporters (re-read through Obs.Json), and
   end-to-end provenance through an engine run. *)

open Matrix
open Helpers

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now () in
    Alcotest.(check bool) "never goes backwards" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool) "elapsed non-negative" true
    (Obs.Clock.elapsed (Obs.Clock.now ()) >= 0.)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.count m "a" 1;
  Obs.Metrics.count m "a" 4;
  Obs.Metrics.count m "b" 2;
  Alcotest.(check int) "accumulates" 5 (Obs.Metrics.counter_value m "a");
  Alcotest.(check int) "untouched is 0" 0 (Obs.Metrics.counter_value m "zzz");
  Alcotest.(check (list (pair string int)))
    "sorted snapshot"
    [ ("a", 5); ("b", 2) ]
    (Obs.Metrics.counters m)

let test_metrics_gauges_and_histograms () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.gauge m "depth" 3.;
  Obs.Metrics.gauge m "depth" 7.;
  Alcotest.(check (list (pair string (float 0.))))
    "gauge keeps latest" [ ("depth", 7.) ] (Obs.Metrics.gauges m);
  Obs.Metrics.observe ~buckets:[| 1.; 10. |] m "h" 0.5;
  Obs.Metrics.observe ~buckets:[| 1.; 10. |] m "h" 5.;
  Obs.Metrics.observe ~buckets:[| 1.; 10. |] m "h" 50.;
  match Obs.Metrics.histograms m with
  | [ ("h", h) ] ->
      Alcotest.(check (array (float 0.))) "bounds kept" [| 1.; 10. |] h.buckets;
      Alcotest.(check (array int)) "one per bucket + overflow" [| 1; 1; 1 |]
        h.Obs.Metrics.counts;
      Alcotest.(check (float 1e-9)) "sum" 55.5 h.Obs.Metrics.sum;
      Alcotest.(check int) "total" 3 h.Obs.Metrics.total
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

let test_disabled_is_noop () =
  Alcotest.(check bool) "no ambient collector" false (Obs.enabled ());
  (* every entry point must be callable (and cheap) with no collector *)
  Obs.count "nope";
  Obs.count ~n:5 "nope";
  Obs.gauge "nope" 1.;
  Obs.observe "nope" 1.;
  let r = Obs.with_span "nope" ~attrs:[ ("k", "v") ] (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span passes the result through" 42 r

let test_span_nesting_and_parents () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "outer" (fun () ->
          Obs.with_span "inner-1" (fun () -> ());
          Obs.with_span "inner-2"
            ~attrs_after:(fun () -> [ ("late", "yes") ])
            (fun () -> ())));
  match Obs.Trace.spans c.Obs.trace with
  | [ outer; i1; i2 ] ->
      Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
      Alcotest.(check (option int)) "outer is a root" None outer.Obs.Trace.parent;
      Alcotest.(check (option int))
        "inner-1 parented" (Some outer.Obs.Trace.id) i1.Obs.Trace.parent;
      Alcotest.(check (option int))
        "inner-2 parented" (Some outer.Obs.Trace.id) i2.Obs.Trace.parent;
      Alcotest.(check bool) "ids in open order" true
        (outer.Obs.Trace.id < i1.Obs.Trace.id && i1.Obs.Trace.id < i2.Obs.Trace.id);
      Alcotest.(check (list (pair string string)))
        "attrs_after lands on the span"
        [ ("late", "yes") ]
        i2.Obs.Trace.attrs;
      Alcotest.(check bool) "outer covers inner" true
        (outer.Obs.Trace.duration_s >= i1.Obs.Trace.duration_s)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_recorded_on_raise () =
  let c = Obs.create () in
  (try
     Obs.with_collector c (fun () ->
         Obs.with_span "doomed" (fun () -> failwith "bang"))
   with Failure _ -> ());
  match Obs.Trace.spans c.Obs.trace with
  | [ s ] -> Alcotest.(check string) "span survives the raise" "doomed" s.Obs.Trace.name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_span_free_collector () =
  let c = Obs.create ~spans:false () in
  Obs.with_collector c (fun () ->
      let r = Obs.with_span "quiet" (fun () -> 41 + 1) in
      Alcotest.(check int) "with_span passes the result through" 42 r;
      (match Obs.with_span "quiet" (fun () -> failwith "bang") with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure msg ->
          Alcotest.(check string) "exception re-raised" "bang" msg);
      Obs.count "kept");
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Obs.Trace.spans c.Obs.trace));
  Alcotest.(check int) "metrics still counted" 1
    (Obs.Metrics.counter_value c.Obs.metrics "kept")

let test_with_collector_restores () =
  let outer = Obs.create () in
  let inner = Obs.create () in
  let installed c = match Obs.get () with Some c' -> c' == c | None -> false in
  Obs.with_collector outer (fun () ->
      Obs.with_collector inner (fun () ->
          Alcotest.(check bool) "inner installed" true (installed inner));
      Alcotest.(check bool) "outer restored" true (installed outer));
  Alcotest.(check bool) "nothing installed after" false (Obs.enabled ())

let test_chrome_trace_parses () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "root" ~attrs:[ ("k", "v\"quoted\"") ] (fun () ->
          Obs.with_span "child" (fun () -> ())));
  let text = Obs.Export.chrome_trace ~normalize:true c.Obs.trace in
  match Obs.Json.parse text with
  | Error msg -> Alcotest.failf "chrome trace is not valid JSON: %s" msg
  | Ok json ->
      let events =
        match Obs.Json.member "traceEvents" json with
        | Some (Obs.Json.List ev) -> ev
        | _ -> Alcotest.fail "no traceEvents"
      in
      let span_names =
        List.filter_map
          (fun e ->
            match Obs.Json.(member "ph" e, member "name" e) with
            | Some (Obs.Json.Str "X"), Some (Obs.Json.Str name) -> Some name
            | _ -> None)
          events
      in
      Alcotest.(check (list string)) "X events" [ "root"; "child" ] span_names;
      List.iter
        (fun e ->
          match Obs.Json.member "ph" e with
          | Some (Obs.Json.Str "X") ->
              Alcotest.(check (option (float 0.)))
                "normalized ts" (Some 0.)
                (Option.bind (Obs.Json.member "ts" e) Obs.Json.number)
          | _ -> ())
        events

let test_prometheus_format () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.count m "chase.rounds" 3;
  Obs.Metrics.gauge m "pool.queue_depth" 2.;
  Obs.Metrics.observe ~buckets:[| 0.1; 1. |] m "wave.seconds" 0.05;
  let text = Obs.Export.prometheus m in
  let contains needle =
    let n = String.length needle and l = String.length text in
    let rec loop i = i + n <= l && (String.sub text i n = needle || loop (i + 1)) in
    loop 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains needle))
    [
      "exl_chase_rounds 3";
      "exl_pool_queue_depth 2";
      "exl_wave_seconds_bucket{le=\"0.1\"} 1";
      "exl_wave_seconds_bucket{le=\"+Inf\"} 1";
      "exl_wave_seconds_count 1";
    ]

let test_jsonl_lines_parse () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      Obs.with_span "s" (fun () -> Obs.count "c");
      Obs.record_provenance
        {
          Obs.Provenance.cube = "GDP";
          tgds = [ "RGDP(q,r,v) -> GDP(q,r,v)" ];
          wave = 0;
          target = "sql";
          status = Obs.Provenance.Computed;
          attempts = 1;
          translate_attempts = 1;
          translate_seconds = 0.;
          execute_seconds = 0.;
        });
  let text = Obs.Export.jsonl ~normalize:true c.Obs.trace c.Obs.metrics c.Obs.provenance in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "several lines" true (List.length lines >= 3);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "bad JSONL line %S: %s" line msg)
    lines

(* End-to-end: run a tiny program through the engine facade under a
   collector and check that provenance names a producing target and at
   least one tgd for every derived cube. *)
let test_engine_run_provenance () =
  let source = "cube A(q: quarter);\nB := A + 1;\nC := 2 * B;\n" in
  let series name base =
    cube_of name
      [ ("q", Domain.Period (Some Calendar.Quarter)) ]
      (List.init 8 (fun i ->
           [ vq (2020 + (i / 4)) ((i mod 4) + 1); vf (base +. float_of_int i) ]))
  in
  let engine = Engine.Exlengine.create () in
  (match Engine.Exlengine.register_program engine ~name:"p" source with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "register: %s" msg);
  (match Engine.Exlengine.load_elementary engine (series "A" 1.) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "load A: %s" msg);
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      match Engine.Exlengine.recompute engine with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "recompute: %s" msg);
  (match Obs.Provenance.records c.Obs.provenance with
  | [ b; cc ] ->
      Alcotest.(check string) "first cube" "B" b.Obs.Provenance.cube;
      Alcotest.(check string) "second cube" "C" cc.Obs.Provenance.cube;
      List.iter
        (fun r ->
          Alcotest.(check string) "status" "computed"
            (Obs.Provenance.status_to_string r.Obs.Provenance.status);
          Alcotest.(check bool) "a producing target is named" true
            (r.Obs.Provenance.target <> "");
          Alcotest.(check bool) "at least one tgd recorded" true
            (r.Obs.Provenance.tgds <> []);
          Alcotest.(check bool) "attempts counted" true
            (r.Obs.Provenance.attempts >= 1))
        [ b; cc ]
  | records ->
      Alcotest.failf "expected 2 provenance records, got %d"
        (List.length records));
  Alcotest.(check bool) "dispatcher waves counted" true
    (Obs.Metrics.counter_value c.Obs.metrics "dispatcher.waves" >= 1);
  Alcotest.(check bool) "spans recorded" true
    (List.exists
       (fun s -> s.Obs.Trace.name = "dispatcher.run")
       (Obs.Trace.spans c.Obs.trace))

let suite =
  [
    ("clock: monotonic, non-negative elapsed", `Quick, test_clock_monotonic);
    ("metrics: counters accumulate, sorted", `Quick, test_metrics_counters);
    ( "metrics: gauges latest, histogram buckets",
      `Quick,
      test_metrics_gauges_and_histograms );
    ("disabled: every entry point is a no-op", `Quick, test_disabled_is_noop);
    ("spans: nesting, parents, attrs_after", `Quick, test_span_nesting_and_parents);
    ("spans: recorded when the thunk raises", `Quick, test_span_recorded_on_raise);
    ("spans: span-free collector runs the thunk only", `Quick, test_span_free_collector);
    ("collector: with_collector restores", `Quick, test_with_collector_restores);
    ("export: chrome trace is valid JSON", `Quick, test_chrome_trace_parses);
    ("export: prometheus text exposition", `Quick, test_prometheus_format);
    ("export: every JSONL line parses", `Quick, test_jsonl_lines_parse);
    ("provenance: engine run names tgd + target", `Quick, test_engine_run_provenance);
  ]
