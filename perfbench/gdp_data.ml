(* The paper's Section 2 GDP programs and seeded data deliveries for
   them, shared by gdp_cycle and serve_mixed. *)

open Matrix

let production =
  {|
cube PDR(d: date, r: string);
cube RGDPPC(q: quarter, r: string);

PQR   := avg(PDR, group by quarter(d) as q, r);
RGDP  := RGDPPC * PQR;
GDP   := sum(RGDP, group by q);
GDPT  := stl_t(GDP);
PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
|}

let dissemination =
  {|
GDP_INDEX := 100 * GDP / 230000000;
GDP_SMOOTH := ma(GDP_INDEX, 4);
|}

(* Technical metadata of paper 5.2/5.3: the seasonal trend runs on the
   vector engine, the dissemination index on the ETL engine, the rest
   by the default priority (SQL first). *)
let config =
  {
    Engine.Exlengine.default_config with
    Engine.Exlengine.policy =
      {
        Engine.Dispatcher.default_policy with
        Engine.Dispatcher.overrides = [ ("GDPT", "vector"); ("GDP_INDEX", "etl") ];
      };
  }

let first_year = 2015

let pdr_schema =
  Schema.make ~name:"PDR" ~dims:[ ("d", Domain.Date); ("r", Domain.String) ] ()

let rgdppc_schema =
  Schema.make ~name:"RGDPPC"
    ~dims:[ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
    ()

let region i = Printf.sprintf "r%03d" i

let days ~years =
  let d0 = Calendar.Date.make ~year:first_year ~month:1 ~day:1 in
  let d1 = Calendar.Date.make ~year:(first_year + years) ~month:1 ~day:1 in
  List.init
    (Calendar.Date.to_rata_die d1 - Calendar.Date.to_rata_die d0)
    (Calendar.Date.add_days d0)

(* One delivery: daily population per region and quarterly per-capita
   GDP, trend plus seasonality plus seeded noise. *)
let delivery ~regions ~years st =
  let pdr = Cube.create pdr_schema and rgdppc = Cube.create rgdppc_schema in
  let noise scale = scale *. (Random.State.float st 2. -. 1.) in
  let days = days ~years in
  for ri = 0 to regions - 1 do
    let r = Value.String (region ri) in
    let base = 1_000_000. +. (250_000. *. float_of_int ri) +. noise 50_000. in
    List.iteri
      (fun t d ->
        Cube.set pdr
          (Tuple.of_list [ Value.Date d; r ])
          (Value.Float (Float.round (base +. (12. *. float_of_int t) +. noise 500.))))
      days;
    for y = 0 to years - 1 do
      for q = 1 to 4 do
        let t = float_of_int ((y * 4) + q - 1) in
        let seasonal = 0.5 *. sin (Float.pi /. 2. *. float_of_int (q - 1)) in
        Cube.set rgdppc
          (Tuple.of_list
             [ Value.Period (Calendar.Period.quarter (first_year + y) q); r ])
          (Value.Float (7. +. (0.04 *. t) +. seasonal +. noise 0.05))
      done
    done
  done;
  (pdr, rgdppc)

let ok what = function
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

let engine () =
  let e = Engine.Exlengine.create ~config () in
  ok "production" (Engine.Exlengine.register_program e ~name:"production" production);
  ok "dissemination"
    (Engine.Exlengine.register_program e ~name:"dissemination" dissemination);
  e

(* The reference interpreter's derived cubes over one delivery. *)
let reference (pdr, rgdppc) =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary pdr;
  Registry.add reg Registry.Elementary rgdppc;
  match Exl.Program.run_source (production ^ dissemination) reg with
  | Ok out -> out
  | Error e -> failwith ("reference interpreter: " ^ Exl.Errors.to_string e)

(* Every derived cube of [got] equals [expected]'s (relative 1e-6:
   targets sum in different orders). *)
let derived_match ~expected got =
  let names = Registry.derived_names expected in
  names <> []
  && List.for_all
       (fun name ->
         match (Registry.find expected name, got name) with
         | Some a, Some b -> Cube.equal_data ~eps:1e-6 a b
         | _ -> false)
       names
