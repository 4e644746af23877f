(* The fixed rows of the benchmark tables.  bench/main.exe times them
   (X4, X11, X12, X13 and the wall-clock guard); the test suite counts
   them exactly (test_counters.ml).  Each row is defined once, here, so
   the timed and the counted workloads cannot drift apart. *)
open Matrix

type row = {
  label : string;
  program : string;  (** EXL source *)
  data : unit -> Registry.t;  (** a fresh source instance per call *)
}

let mapping_of program =
  match Mappings.Generate.of_checked (Core.compile_exn program) with
  | Ok g -> g.Mappings.Generate.mapping
  | Error e -> failwith (Exl.Errors.to_string e)

let overview ~label ~regions ~years =
  {
    label;
    program = Workload.overview_program;
    data = (fun () -> Workload.overview_registry ~regions ~years ());
  }

let micro = overview ~label:"overview 2rx2y (x4 micro)" ~regions:2 ~years:2
let scaled = overview ~label:"overview 8rx5y (10x scale)" ~regions:8 ~years:5

(* Naive vs semi-naive chase (X4): the x4 micro workload, a >= 10x
   scale-up of it, the single-join tgd at 16k rows, and a 16-step
   scalar chain (deep dependency graph, the worst case for the
   order-blind naive fixpoint). *)
let chase =
  [
    micro;
    scaled;
    {
      label = "join 16k rows";
      program = Workload.join_program;
      data = (fun () -> Workload.join_registry ~rows:16_000 ());
    };
    {
      label = "chain length 16";
      program = Workload.chain_program ~length:16;
      data = (fun () -> Workload.chain_registry ~rows:2_000 ());
    };
  ]

(* Generated vs certified-optimized mapping (X12). *)
let opt =
  [
    micro;
    scaled;
    {
      label = "outer growth 4rx40q";
      program = Workload.outer_growth_program;
      data = (fun () -> Workload.series_registry ~quarters:40 ~regions:4 ());
    };
  ]

(* Row vs columnar chase (X13). *)
let col =
  [
    overview ~label:"overview 8rx5y chase" ~regions:8 ~years:5;
    {
      label = "grouped aggregation 200qx200r";
      program = Workload.agg_program;
      data = (fun () -> Workload.series_registry ~quarters:200 ~regions:200 ());
    };
  ]

(* Batched updates through the facade (X11): an engine over the 10x
   overview workload with its solution cache warm, and batches that
   revise the most recent PDR observations — revisions in production
   arrive at the tail of the series. *)
type incr = {
  engine : Engine.Exlengine.t;
  batches : (string * int) list;  (** row label, keys revised *)
  batch : int -> Engine.Update.t list;
      (** revise the [n] most recent PDR keys *)
}

let incr_setup () =
  let check = function Ok v -> v | Error msg -> failwith msg in
  let engine =
    Engine.Exlengine.create
      ~config:{ Engine.Exlengine.default_config with record_history = false }
      ()
  in
  check
    (Engine.Exlengine.register_program engine ~name:"overview"
       Workload.overview_program);
  let data = Workload.overview_registry ~regions:8 ~years:5 () in
  List.iter
    (fun name ->
      check
        (Engine.Exlengine.load_elementary engine (Registry.find_exn data name)))
    [ "PDR"; "RGDPPC" ];
  ignore (check (Engine.Exlengine.recompute_all engine) : Engine.Dispatcher.report);
  check (Engine.Exlengine.warm engine);
  let keys =
    List.sort
      (fun a b -> String.compare (Tuple.to_string a) (Tuple.to_string b))
      (Cube.keys (Registry.find_exn (Engine.Exlengine.store engine) "PDR"))
  in
  let n_keys = List.length keys in
  (* Each application must differ from the previous one (an
     already-applied batch compacts to zero deltas), so the revised
     value carries a per-call salt. *)
  let salt = ref 0 in
  let batch n =
    incr salt;
    let v = Value.Float (5000. +. (0.125 *. float_of_int !salt)) in
    List.filteri (fun i _ -> i >= n_keys - n) keys
    |> List.map (fun k -> Engine.Update.set ~cube:"PDR" ~key:(Tuple.to_list k) v)
  in
  {
    engine;
    batches =
      [
        ("overview 8rx5y, 1 revised key", 1);
        ("overview 8rx5y, 1% of PDR revised", max 1 (n_keys / 100));
        ("overview 8rx5y, 10% of PDR revised", max 1 (n_keys / 10));
      ];
    batch;
  }
