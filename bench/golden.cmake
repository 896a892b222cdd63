# Runs CMD ARGS twice, writing NAME_a.json and NAME_b.json to the working
# directory, and fails unless both equal GOLDEN byte for byte. In ARGS,
# RUN becomes the run's letter. Registered by dtio_add_golden.
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(run a b)
  string(REPLACE "RUN" "${run}" run_args "${args}")
  execute_process(COMMAND ${CMD} ${run_args} --json=${NAME}_${run}.json
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NAME} run ${run} exited with ${status}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${GOLDEN} ${NAME}_${run}.json RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${NAME}_${run}.json differs from ${GOLDEN}")
  endif()
endforeach()
