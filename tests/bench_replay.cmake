# One ManualClock bench as a ctest entry: run it twice with --quick, fail
# unless both runs wrote the same bytes, then check the documents with
# tools/check_bench.py.
#
#   cmake -DBENCH=<binary> -DDOC=<json> [-DTRACE=<json>] -DPYTHON=<python3>
#         -DCHECKER=<check_bench.py> -P bench_replay.cmake
#
# The first run writes DOC, and TRACE when one is named; the rerun is
# untraced and writes DOC.rerun.
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command} exited with ${status}")
  endif()
endfunction()

set(trace_args)
if(TRACE)
  set(trace_args --trace-out ${TRACE})
endif()

run(${BENCH} --quick --out ${DOC} ${trace_args})
run(${BENCH} --quick --out ${DOC}.rerun)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${DOC} ${DOC}.rerun
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "${DOC}.rerun differs from ${DOC}: two --quick runs wrote different bytes")
endif()
run(${PYTHON} ${CHECKER} ${DOC} ${TRACE})
