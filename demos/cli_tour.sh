#!/bin/sh
# Quick tour of the command line front end using the sample configs.
# Run from the repository root after `pip install -e .`.  The tour stops
# at the first command that fails.
set -ex

regsing solve-harmonic --config demos/configs/sphere_identity.json --quiet
regsing solve-harmonic --config demos/configs/flat_sweep.json --quiet
regsing solve-biharmonic --config demos/configs/biharmonic_flat.json
regsing monodromy --config demos/configs/nilpotent_monodromy.json
regsing fundamental --config demos/configs/fundamental_loop.json
# A(0) = diag(1/4, 3/4) is non-resonant: the loop is read from the
# Frobenius series, and the tour fails unless the report says so
report=$(regsing monodromy --config demos/configs/monodromy_series.json)
echo "$report"
case "$report" in *'"path": "series"'*) ;; *) exit 1 ;; esac
regsing solve-singular --config demos/configs/affine_singular.json
regsing check --config demos/configs/check_sphere.json

# this one exits 2 on purpose: the problem is resonant at the pole and
# the report explains why; any other exit status ends the tour as a failure
status=0
regsing check --config demos/configs/check_rejected.json || status=$?
test "$status" -eq 2
