# Injected into the repository's own configure step through
# CMAKE_PROJECT_INCLUDE (see run.py). Once the root CMakeLists.txt has
# defined every library target, perfbench/CMakeLists.txt is included so the
# benchmark links the libraries exactly as the repository builds them.
include_guard(GLOBAL)
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]] CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
