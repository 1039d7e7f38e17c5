//! The whole suite: every workload in a process of its own, one after
//! another, so each has its own peak memory and none warms another's
//! caches.  Prints every metric as `workload metric value unit` and
//! writes the table, stamped with provenance, under `benchmark/out/`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::host::provenance_json;
use crate::kernels::Workload;
use crate::metrics::{END_TO_END, SETUP_FLOOR_S};
use crate::OUT_DIR;

struct Row {
    workload: String,
    metric: String,
    value: f64,
    unit: String,
    /// `n=… min=… median=… max=…` as the child printed them.
    spread: [f64; 4],
}

/// Parse `workload metric value unit n=N min=A median=B max=C`.
fn parse_row(line: &str) -> Option<Row> {
    let fields: Vec<&str> = line.split(' ').collect();
    let [workload, metric, value, unit, n, min, median, max] = fields[..] else {
        return None;
    };
    let tagged = |field: &str, tag: &str| field.strip_prefix(tag)?.parse::<f64>().ok();
    Some(Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        value: value.parse().ok()?,
        unit: unit.to_string(),
        spread: [
            tagged(n, "n=")?,
            tagged(min, "min=")?,
            tagged(median, "median=")?,
            tagged(max, "max=")?,
        ],
    })
}

/// Run every workload once; `None` if a process could not be run at all.
fn run_set(
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    failed: &mut bool,
) -> Option<Vec<Row>> {
    let exe = std::env::current_exe().ok()?;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if quick {
            command.arg("--quick");
        }
        let output = command.output().ok()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        rows.extend(stdout.lines().filter_map(parse_row));
        if !output.status.success() {
            eprintln!("{}: exit {}", workload.name(), output.status);
            *failed = true;
        }
    }
    Some(rows)
}

fn results_json(rows: &[Row], seed: u64, seconds: f64, traced: bool, quick: bool) -> String {
    let provenance = provenance_json();
    let mut out = format!(
        "{{\n\"schema\": 1, \"quick\": {quick}, \"traced\": {traced}, \"seed\": {seed}, \
         \"seconds\": {seconds}, {provenance},\n\"rows\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let [n, min, median, max] = row.spread;
        let _ = writeln!(
            out,
            "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\", \
             \"n\": {n}, \"min\": {min}, \"median\": {median}, \"max\": {max}, \"seed\": {seed}, {provenance}}}{comma}",
            row.workload, row.metric, row.value, row.unit
        );
    }
    out.push_str("],\n\"claim\": null\n}\n");
    out
}

/// Share by which the worse of two runs of the same code is worse than
/// the better one.
fn disagreement(a: f64, b: f64) -> f64 {
    let (low, high) = if a < b { (a, b) } else { (b, a) };
    if low > 0.0 {
        high / low - 1.0
    } else {
        f64::INFINITY
    }
}

/// Both sets side by side; true if every end-to-end metric agrees
/// within its bound.
fn compare(first: &[Row], second: &[Row]) -> bool {
    let mut agree = true;
    println!("A/A: workload metric first second difference bound verdict");
    for a in first {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == a.metric) else {
            continue;
        };
        let Some(b) = second
            .iter()
            .find(|b| b.workload == a.workload && b.metric == a.metric)
        else {
            continue;
        };
        let difference = disagreement(a.value, b.value);
        let small_setup = metric.name == "setup_s" && (a.value - b.value).abs() < SETUP_FLOOR_S;
        let ok = difference <= metric.bound || small_setup;
        agree &= ok;
        println!(
            "A/A: {} {} {} {} {:.4} {} {}",
            a.workload,
            a.metric,
            a.value,
            b.value,
            difference,
            metric.bound,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    agree
}

pub fn run(seed: u64, seconds: f64, traced: bool, aa: bool, quick: bool) -> ExitCode {
    let mut failed = false;
    let Some(rows) = run_set(seed, seconds, traced, quick, &mut failed) else {
        eprintln!("cannot run the benchmark's own executable");
        return ExitCode::FAILURE;
    };
    let file = format!(
        "{OUT_DIR}/results{}.json",
        if traced { "-traced" } else { "" }
    );
    let json = results_json(&rows, seed, seconds, traced, quick);
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&file, json)) {
        Ok(()) => println!("wrote {file}"),
        Err(e) => {
            eprintln!("cannot write {file}: {e}");
            failed = true;
        }
    }
    if aa {
        match run_set(seed, seconds, traced, quick, &mut failed) {
            Some(second) => failed |= !compare(&rows, &second),
            None => failed = true,
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_parse_and_other_lines_do_not() {
        let row =
            parse_row("dense_reads wall_s 1.39 s n=11 min=1.39 median=1.41 max=1.52").unwrap();
        assert_eq!(
            (row.workload.as_str(), row.metric.as_str()),
            ("dense_reads", "wall_s")
        );
        assert_eq!((row.value, row.unit.as_str()), (1.39, "s"));
        assert_eq!(row.spread, [11.0, 1.39, 1.41, 1.52]);
        assert!(parse_row("dense_reads ops_failed 0 count").is_none());
        assert!(parse_row("{\"correct\": true}").is_none());
    }

    #[test]
    fn disagreement_is_symmetric_and_setup_has_a_floor() {
        assert!((disagreement(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert_eq!(disagreement(1.1, 1.0), disagreement(1.0, 1.1));
        let row = |metric: &str, value: f64| Row {
            workload: "w".into(),
            metric: metric.into(),
            value,
            unit: "s".into(),
            spread: [1.0, value, value, value],
        };
        assert!(compare(&[row("wall_s", 1.0)], &[row("wall_s", 1.05)]));
        assert!(!compare(&[row("wall_s", 1.0)], &[row("wall_s", 1.5)]));
        // 0.3 ms against 0.5 ms of set-up is noise, not a regression.
        assert!(compare(
            &[row("setup_s", 0.0003)],
            &[row("setup_s", 0.0005)]
        ));
        assert!(!compare(&[row("setup_s", 0.1)], &[row("setup_s", 0.2)]));
    }
}
