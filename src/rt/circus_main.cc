// The `circus` executable; the subcommand table is cli::Main (cli.h).
#include "src/rt/cli.h"

int main(int argc, char** argv) { return circus::rt::cli::Main(argc, argv); }
