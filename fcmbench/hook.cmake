# Included by the root project() call (CMAKE_PROJECT_INCLUDE); defers adding
# the benchmark target until the root CMakeLists.txt has finished, so every
# library target it links already exists.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include \"${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt\")")
