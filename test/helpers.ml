(* Shared helpers for the test suites. *)
open Matrix

let value = Alcotest.testable (Fmt.of_to_string Value.to_string) Value.equal

let date =
  Alcotest.testable (Fmt.of_to_string Calendar.Date.to_string)
    Calendar.Date.equal

let period =
  Alcotest.testable (Fmt.of_to_string Calendar.Period.to_string) (fun a b ->
      Calendar.Period.compare a b = 0)

let pp_cube ppf c =
  Format.fprintf ppf "@[<v2>%s [%d tuples]" (Schema.to_string (Cube.schema c))
    (Cube.cardinality c);
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "@,%s -> %s" (Tuple.to_string k) (Value.to_string v))
    (Cube.to_alist c);
  Format.fprintf ppf "@]"

let cube_eq =
  Alcotest.testable pp_cube (fun a b -> Cube.equal_data ~eps:1e-7 a b)

let floats = Alcotest.float 1e-7

let float_array =
  Alcotest.testable
    (Fmt.Dump.array Fmt.float)
    (fun a b ->
      Array.length a = Array.length b
      && Array.for_all2
           (fun x y ->
             (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) < 1e-7)
           a b)

let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.String s
let vq y q = Value.Period (Calendar.Period.quarter y q)
let vm y m = Value.Period (Calendar.Period.month y m)
let vd y m d = Value.Date (Calendar.Date.make ~year:y ~month:m ~day:d)
let key vs = Tuple.of_list vs

(* Values that [Value.equal] conflates across constructors: [Int 1]
   meets [Float 1.], [-0.] meets [0.] and [Int 0], and NaN meets
   itself; and ints at and beyond +-2^53 beside the floats they round
   to, which [Value.compare] must keep apart: [Int (2^53 + 1)] is above
   [Float 2^53], which equals [Int 2^53].  Dates span a year end, and
   periods of four frequencies cover them. *)
let gen_dict_value =
  let open QCheck.Gen in
  let date =
    map
      (fun n -> Calendar.Date.add_days (Calendar.Date.make ~year:1999 ~month:12 ~day:25) n)
      (int_bound 60)
  in
  frequency
    [
      (3, map (fun i -> Value.Int i) (int_range (-3) 3));
      ( 3,
        oneofl
          [ Value.Float 1.; Value.Float 0.; Value.Float (-0.); Value.Float 2.5;
            Value.Float (-3.); Value.Float Float.nan; Value.Float Float.infinity ] );
      (3, map (fun d -> Value.Date d) date);
      ( 2,
        map2
          (fun f d -> Value.Period (Calendar.Period.of_date f d))
          (oneofl Calendar.[ Year; Quarter; Month; Day ])
          date );
      (2, oneofl [ Value.String "a"; Value.String "b"; Value.String ""; Value.String "1" ]);
      (1, oneofl [ Value.Null; Value.Bool true; Value.Bool false ]);
      ( 1,
        let p53 = 0x20000000000000 in
        oneofl
          [ Value.Int p53; Value.Int (p53 + 1); Value.Int (-p53 - 1); Value.Int max_int;
            Value.Int min_int; Value.Float 0x1p53; Value.Float (-0x1p53);
            Value.Float 0x1p62 ] );
    ]

(* The same value: constructor, payload and, for floats, every bit. *)
let identical a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let cube_of name dims rows =
  let schema = Schema.make ~name ~dims () in
  Cube.of_rows schema rows

(* A registry with the paper's overview cubes: PDR (population by day and
   region) and RGDPPC (regional GDP per capita by quarter and region). *)
let overview_registry ?(years = 2) ?(regions = [ "north"; "south" ]) () =
  let reg = Registry.create () in
  let pdr_schema =
    Schema.make ~name:"PDR"
      ~dims:[ ("d", Domain.Date); ("r", Domain.String) ]
      ()
  in
  let pdr = Cube.create pdr_schema in
  let rgdppc_schema =
    Schema.make ~name:"RGDPPC"
      ~dims:[ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      ()
  in
  let rgdppc = Cube.create rgdppc_schema in
  List.iteri
    (fun ri region ->
      (* Daily population: slow linear growth, different base per region. *)
      let base = 1000. +. (float_of_int ri *. 500.) in
      for year = 2020 to 2020 + years - 1 do
        for doy = 0 to 364 do
          let d =
            Calendar.Date.add_days
              (Calendar.Date.make ~year ~month:1 ~day:1)
              doy
          in
          let day_index =
            float_of_int (((year - 2020) * 365) + doy)
          in
          Cube.set pdr
            (key [ Value.Date d; vs region ])
            (vf (base +. (0.1 *. day_index)))
        done;
        (* Quarterly GDP per capita with seasonality. *)
        for q = 1 to 4 do
          let t = float_of_int (((year - 2020) * 4) + q - 1) in
          let seasonal = 5. *. sin (Float.pi /. 2. *. float_of_int (q - 1)) in
          Cube.set rgdppc
            (key [ vq year q; vs region ])
            (vf (30. +. (0.5 *. t) +. seasonal +. (2. *. float_of_int ri)))
        done
      done)
    regions;
  Registry.add reg Registry.Elementary pdr;
  Registry.add reg Registry.Elementary rgdppc;
  reg

(* The paper's Section 2 worked example, in concrete EXL syntax.
   Statement (5) is the fused form with four operators. *)
let overview_program =
  {|
cube PDR(d: date, r: string);
cube RGDPPC(q: quarter, r: string);

PQR   := avg(PDR, group by quarter(d) as q, r);
RGDP  := RGDPPC * PQR;
GDP   := sum(RGDP, group by q);
GDPT  := stl_t(GDP);
PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
|}

let load_overview () = Exl.Program.load_exn overview_program

(* A shifted temporary shared by an aggregation and a growth rate.
   [first] reads its bag in fact order, so the optimizer checks this
   fusion on the critical instance instead of unfolding it. *)
let ordered_fusion_program =
  {|
cube A(q: quarter, r: string);
S := first(shift(A, 1), group by q);
G := 100 * (A - shift(A, 1)) / A;
|}

let check_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Exl.Errors.to_string e)

(* For the [(_, string) result]s of Core and the mapping-level targets. *)
let core_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let overview_mapping () = core_ok (Core.mapping_of (load_overview ()))

let check_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (e : Exl.Errors.t) -> e.Exl.Errors.msg

(* The rows [Cube.select ?limit ~filters] must return, taken from the
   key-sorted [alist]. *)
let select_spec ?limit ~filters alist =
  List.filter
    (fun (k, _) -> List.for_all (fun (i, v) -> Value.equal (Tuple.get k i) v) filters)
    alist
  |> List.filteri (fun i _ -> Option.fold ~none:true ~some:(( < ) i) limit)

let same_rows a b =
  List.equal (fun (k, v) (k', v') -> Tuple.equal k k' && Value.equal v v') a b

(* Unified qcheck budget reader (docs/TESTING.md): each property suite
   reads its own variable, every variable falls back to the shared
   EXL_QCHECK_COUNT, then to the suite's default.  Non-numeric and
   non-positive values are ignored. *)
let qcheck_count ~var ~default =
  let read v =
    match Option.bind (Sys.getenv_opt v) int_of_string_opt with
    | Some n when n > 0 -> Some n
    | _ -> None
  in
  match read var with
  | Some n -> n
  | None -> Option.value ~default (read "EXL_QCHECK_COUNT")

(* The paper's Section 4.2 for one back end: on random programs,
   [Core.run ~backend] (the dispatcher's own target) computes the
   reference interpreter's cubes. *)
let prop_backend_matches_interp ~count ~name backend =
  QCheck.Test.make ~count ~name Gen.arb_seed (fun seed ->
      let src, reg = Gen.program_of_seed seed in
      match Core.compile src with
      | Error msg ->
          QCheck.Test.fail_reportf "generated program does not check: %s\n%s"
            msg src
      | Ok program -> (
          match
            ( Core.run ~backend:Core.Reference program reg,
              Core.run ~backend program reg )
          with
          | Error msg, _ ->
              QCheck.Test.fail_reportf "reference failed on\n%s\n%s" src msg
          | _, Error msg ->
              QCheck.Test.fail_reportf "backend failed on\n%s\n%s" src msg
          | Ok reference, Ok got -> (
              match
                Registry.diff ~eps:1e-7 ~names:(Registry.names reference)
                  reference got
              with
              | [] -> true
              | problems ->
                  QCheck.Test.fail_reportf "mismatch on\n%s\n%s" src
                    (String.concat "\n" problems))))

(* Hand-written tgds, built from their constructors:
   [tl [ atom "A" [ var "q"; var "m" ] ] (atom "B" [ var "q"; var "m" ])]
   is A(q, m) → B(q, m). *)
let var x = Mappings.Term.Var x
let num f = Mappings.Term.Const (Value.Float f)
let atom rel args = Mappings.Tgd.atom rel args
let tl lhs rhs = Mappings.Tgd.Tuple_level { lhs; rhs }

(* [source] → [target(group_by, sum(measure))]. *)
let sum_tgd source ~group_by ~measure target =
  Mappings.Tgd.Aggregation
    { source; group_by; aggr = Stats.Aggregate.Sum; measure; target }

(* One tgd that is not functional, A(q, r, m) → SHARED(q, m): A's two
   regions write different measures to 2024Q1, and every backend's
   [execute] must refuse the mapping with an [Error] naming SHARED. *)
let clashing_target () =
  let dims = [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ] in
  let a = Schema.make ~name:"A" ~dims () in
  let mapping =
    {
      Mappings.Mapping.source = [ a ];
      target = [ a; Schema.make ~name:"SHARED" ~dims:[ List.hd dims ] () ];
      st_tgds = [];
      t_tgds =
        [ tl [ atom "A" [ var "q"; var "r"; var "m" ] ] (atom "SHARED" [ var "q"; var "m" ]) ];
      egds = [];
    }
  in
  let registry = Registry.create () in
  Registry.add registry Registry.Elementary
    (cube_of "A" dims
       [
         [ vq 2024 1; vs "n"; vf 1. ]; [ vq 2024 1; vs "s"; vf 5. ]; [ vq 2024 3; vs "n"; vf 7. ];
       ]);
  (mapping, registry)

let check_names_shared what = function
  | Ok _ -> Alcotest.failf "%s: expected an Error" what
  | Error msg ->
      Alcotest.(check bool) (what ^ " names SHARED: " ^ msg) true
        (Astring_contains.contains msg "SHARED")

(* The shipped examples, from the test's build directory or from the
   repository root. *)
let examples_dir () = List.find Sys.file_exists [ "../examples"; "examples" ]

(* A fresh directory name under the system temp dir. *)
let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  dir

(* The domain pool's bursts as the tests drive them: a pool that is
   always shut down, and [Pool.try_all] over unlabelled thunks with the
   first failure re-raised once every task has finished. *)
let with_pool ?size f =
  let pool = Engine.Pool.create ?size () in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) (fun () -> f pool)

let run_all pool fs =
  Engine.Pool.try_all pool (List.map (fun f -> ("task", f)) fs)
  |> List.map (function Ok v -> v | Error (_, e) -> raise e)

(* A cube's newest dated version. *)
let latest_version history name =
  Option.map snd
    (List.nth_opt (List.rev (Engine.Historicity.versions history name)) 0)
