# One ManualClock bench as a ctest entry: run it twice with --quick, fail
# unless both runs wrote the same bytes, then check the documents with
# tools/check_bench.py.
#
#   cmake -DBENCH=<binary> -DDOC=<json> [-DTRACE=<json>] -DPYTHON=<python3>
#         -DCHECKER=<check_bench.py> -P bench_replay.cmake
#
# The first run writes DOC, and TRACE when one is named; the rerun is
# untraced and writes DOC.rerun, so tracing must not change the document.
# When a trace is named, a third run writes DOC.rerun and TRACE.rerun, and
# the two traces must hold the same events once wall-clock timestamps are
# dropped.
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command} exited with ${status}")
  endif()
endfunction()

function(require_same_document)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${DOC} ${DOC}.rerun
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${DOC}.rerun differs from ${DOC}: two --quick runs wrote different bytes")
  endif()
endfunction()

set(trace_args)
if(TRACE)
  set(trace_args --trace-out ${TRACE})
endif()

run(${BENCH} --quick --out ${DOC} ${trace_args})
run(${BENCH} --quick --out ${DOC}.rerun)
require_same_document()
if(TRACE)
  run(${BENCH} --quick --out ${DOC}.rerun --trace-out ${TRACE}.rerun)
  require_same_document()
  run(${PYTHON} ${CHECKER} --same-trace ${TRACE} ${TRACE}.rerun)
endif()
run(${PYTHON} ${CHECKER} ${DOC} ${TRACE})
