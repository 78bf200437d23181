# The replay_rejects_past_grid CTest: `hdbscan_cli replay` of a valid job
# beside an exact job whose eps the dense grid cannot index must exit 0,
# reject that job at admission with a reason naming the grid's capacity,
# and complete the valid one. Run as
#   cmake -DCLI=<hdbscan_cli> -DJOBS=<jobs file> -DPOINTS=<csv> -P <this file>
execute_process(COMMAND "${CLI}" replay "${JOBS}" "sky=${POINTS}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay exited with ${rc}, not 0")
endif()
foreach(want
    "eps=0.5 minpts=4\\]: completed\n"
    "eps=0.001 minpts=4\\]: rejected: eps 0.001 on dataset 'sky': [^\n]*capacity of 134217728 cells")
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "replay output lacks a line matching: ${want}")
  endif()
endforeach()
