(* Output digests recorded for the default seed, per workload and cell:
   MD5 of [Metrics.report_to_json] for engine cells, of the verdict line
   for Optimal cells. A run with this seed fails the cells that differ.
   Re-record from the [cell <id> <digest>] lines a [--seed 1] run prints
   on standard error. *)

let seed = 1

let digests =
  [
    ( "trace-hiload",
      [
        ("day1/rapid", "1e8bcf959e69162287fa85647947fa8b");
        ("day1/maxprop", "f15b74f83bebc150e60a49260db2fa3d");
        ("day1/spraywait", "7fdc76b87ab7e21b98c50df9ae4d0bae");
        ("day1/prophet", "40b41a54440cd480b0ce6b9a3b4b1980");
        ("day1/direct", "9237dcc3c148e957ee71ff1b85e8bccc");
      ] );
    ( "synthetic-evict",
      [
        ("run0/rapid", "526bc1982373ce29f23988f2f212fe20");
        ("run0/maxprop", "8461e170416007d58e1d554dd79ee94d");
        ("run0/spraywait", "a5f421f819181a255fe163e85e55e73c");
      ] );
    ( "optimal-ilp",
      [
        ("day0@0.15/load12/draw0", "65c47aebf14eb33aae8c9e2de4aab398");
        ("day0@0.15/load12/draw1", "5063a0e9c167fca1cc7b199baf4591af");
        ("day0@0.15/load12/draw2", "f21c14925889acfb354d0026c5771025");
        ("day0@0.2/load6/draw0", "b356d49001eecda903f8355c6341dd91");
        ("day0@0.2/load6/draw1", "35eeeff940e4018411169a9f4406594a");
        ("day0@0.2/load6/draw2", "b07bb9c4571e4b20ecf8131e51393d0c");
        ("day2@0.15/load20/draw0", "1abafaa3d68a24893384d2905282394e");
        ("day2@0.15/load20/draw1", "4545edf141ca17f12464907369785d9b");
        ("day2@0.15/load20/draw2", "75571d3843ee7581bdc90d7e038a24dc");
        ("day2@0.2/load6/draw0", "97b28e38f2de80185f637d2bb475b00e");
        ("day2@0.2/load6/draw1", "4d1ab8ed69a502b097c22175dce4f063");
        ("day2@0.2/load6/draw2", "00bbb44f1de78e9b53d008c6dd15a7e5");
      ] );
  ]
