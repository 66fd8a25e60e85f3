#!/usr/bin/env bash
# check-race-patterns.sh fails when an alternative of a race step's -run
# pattern in the CI workflow matches no test of the step's packages: a
# renamed or deleted test would otherwise drop out of race coverage
# silently. Usage: .github/check-race-patterns.sh [workflow.yml]
set -euo pipefail
ci=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pat=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	read -ra pkgs <<<"$(sed -E "s/.*-run '[^']*'//" <<<"$line")"
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "race step pattern '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E "go test -race -run '" "$ci")
exit $status
