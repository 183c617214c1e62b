(* Outputs recorded on the seed commit.  Simulated results are fixed by
   the inputs; only the study CSV's verdict column depends on the
   seed, so its full digest is pinned for the default seed alone. *)

let default_seed = 1

let study_l1_csv_md5 = "c79c897a113471e8704d8c4df31de705"

let study_l1_seedless_csv_md5 = "cfe4c53b7dac31459cf0258a44c84f89"

(* Per launch mode: the reported value (hex float) and the memory
   counters of the report. *)
let stream_ram =
  let counters ~accesses ~l1 ~l3 ~ram ~alias ~prefetched ~tlb ~walks =
    [
      ("accesses", accesses); ("l1_hits", l1); ("l2_hits", 0); ("l3_hits", l3);
      ("ram_accesses", ram); ("split_accesses", 0); ("alias_stalls", alias);
      ("prefetched_fills", prefetched); ("tlb_misses", tlb); ("page_walks", walks);
      ("nt_stores", 0);
    ]
  in
  let quarter =
    counters ~accesses:137504 ~l1:103128 ~l3:7040 ~ram:27336 ~alias:23106
      ~prefetched:34375 ~tlb:538 ~walks:130
  in
  [
    ( "seq",
      ( "0x1.092005e157977p+2",
        counters ~accesses:550000 ~l1:412500 ~l3:28224 ~ram:109276 ~alias:0
          ~prefetched:137499 ~tlb:2149 ~walks:2149 ) );
    ("openmp", ("0x1.36f0a8dea15cp+1", quarter));
    ("mpi", ("0x1.359851c3a2923p+1", quarter));
  ]
