#!/bin/sh
# Tier-1 verification gate. The steps are defined once, in the Makefile's
# `check` target (build, vet, race-enabled tests, gate-name check, chaos
# and equivalence drills, fuzz smoke, coverage floor, bench sanity); this
# script runs exactly that target.
set -eu
cd "$(dirname "$0")/.."
exec make check
