# ctest script: the m5_mcf cell and `m5sim --bench mcf_r --policy m5
# --scale 128` must print the same m5sim --csv line for the same seed,
# at the cell's own access budget (cells.cc), which the csv line echoes.
execute_process(COMMAND ${SIMBENCH} --workload m5_mcf --seed 7 --csv
                OUTPUT_VARIABLE bench_out RESULT_VARIABLE bench_rc)
execute_process(COMMAND ${M5SIM} --bench mcf_r --policy m5 --scale 128
                        --seed 7 --accesses 2000000 --csv
                OUTPUT_VARIABLE m5sim_out RESULT_VARIABLE m5sim_rc)
if(NOT bench_rc EQUAL 0 OR NOT m5sim_rc EQUAL 0)
    message(FATAL_ERROR "simbench rc=${bench_rc}, m5sim rc=${m5sim_rc}")
endif()
if(NOT bench_out STREQUAL m5sim_out)
    message(FATAL_ERROR "simbench:\n${bench_out}\nm5sim:\n${m5sim_out}")
endif()
message(STATUS "match:\n${bench_out}")
