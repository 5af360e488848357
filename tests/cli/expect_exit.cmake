# Runs EXE with the space-separated ARGS and fails unless it exits with
# status EXPECT. Used as:
#   cmake -DEXE=<binary> -DARGS="<args>" -DEXPECT=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "'${EXE} ${ARGS}' exited ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
