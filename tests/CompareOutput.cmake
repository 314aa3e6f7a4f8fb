# Runs BIN and compares its stdout with the checked-in GOLDEN file byte
# for byte. On a mismatch the actual output is kept in ACTUAL and shown
# as a diff against the golden.
#
#   cmake -DBIN=... -DGOLDEN=... -DACTUAL=... -P CompareOutput.cmake
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE Output RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${Status}")
endif()
file(READ "${GOLDEN}" Expected)
if(NOT Output STREQUAL Expected)
  file(WRITE "${ACTUAL}" "${Output}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "${BIN} output differs from ${GOLDEN}; a change "
          "that moves a figure on purpose regenerates the golden file")
endif()
