// expect-lint: layering -- src/unlisted has no entry in the layer DAG.
// Lint self-test fixture: a file in a src/ directory the DAG does not list.
// Its includes cannot be checked against any layer, so the file itself is
// the finding. Never compiled; consumed by `lint_determinism.py --self-test`.
#pragma once

#include "core/client.h"
